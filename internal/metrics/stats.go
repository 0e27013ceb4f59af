// Package metrics implements the measurement machinery the evaluation
// harness reports with: streaming latency statistics matching the paper's
// Table 1 columns (AVERAGE, AVEDEV, MIN, MAX) and fixed-bin histograms.
//
// AVEDEV is the Excel function the paper's table was evidently produced
// with: the mean of the absolute deviations from the arithmetic mean.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Sample is one latency observation in nanoseconds. Negative values are
// meaningful: a periodic task dispatched before its nominal release (timer
// calibration drift) has negative latency, as in the paper.
type Sample = int64

// Series accumulates samples and computes Table 1-style statistics.
// The zero value is an empty, ready-to-use series.
type Series struct {
	samples []Sample
	sum     float64
	min     Sample
	max     Sample
}

// Add appends one observation.
func (s *Series) Add(v Sample) {
	if len(s.samples) == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.samples = append(s.samples, v)
	s.sum += float64(v)
}

// Len reports the number of observations.
func (s *Series) Len() int { return len(s.samples) }

// Mean returns the arithmetic mean (Table 1 "AVERAGE"). Zero if empty.
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// AveDev returns the mean absolute deviation from the mean (Table 1
// "AVEDEV"). Zero if empty.
func (s *Series) AveDev() float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var acc float64
	for _, v := range s.samples {
		acc += math.Abs(float64(v) - mean)
	}
	return acc / float64(n)
}

// Min returns the smallest observation (Table 1 "MIN"). Zero if empty.
func (s *Series) Min() Sample {
	if len(s.samples) == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (Table 1 "MAX"). Zero if empty.
func (s *Series) Max() Sample {
	if len(s.samples) == 0 {
		return 0
	}
	return s.max
}

// Samples returns a copy of the raw observations.
func (s *Series) Samples() []Sample {
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Reset discards all observations.
func (s *Series) Reset() {
	s.samples = s.samples[:0]
	s.sum = 0
	s.min, s.max = 0, 0
}

// Row is one Table 1 row: a label with the four reported statistics.
type Row struct {
	Label   string
	Average float64
	AveDev  float64
	Min     Sample
	Max     Sample
	N       int
}

// Row materialises the series into a labelled Table 1 row.
func (s *Series) Row(label string) Row {
	return Row{
		Label:   label,
		Average: s.Mean(),
		AveDev:  s.AveDev(),
		Min:     s.Min(),
		Max:     s.Max(),
		N:       s.Len(),
	}
}

// FormatTable renders rows in the layout of the paper's Table 1
// (nanosecond units, two decimals for the derived statistics).
func FormatTable(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-22s %12s %12s %10s %10s %9s\n",
		"", "AVERAGE", "AVEDEV", "MIN", "MAX", "N")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12.2f %12.2f %10d %10d %9d\n",
			r.Label, r.Average, r.AveDev, r.Min, r.Max, r.N)
	}
	return b.String()
}

package metrics

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-bin histogram over a closed range, with explicit
// under/overflow counters, used to visualise latency distributions.
type Histogram struct {
	lo, hi   Sample
	binWidth float64
	bins     []uint64
	under    uint64
	over     uint64
	total    uint64
}

// NewHistogram creates a histogram with nbins equal-width bins covering
// [lo, hi). It returns an error for degenerate ranges or bin counts.
func NewHistogram(lo, hi Sample, nbins int) (*Histogram, error) {
	if nbins <= 0 {
		return nil, fmt.Errorf("metrics: nbins %d must be positive", nbins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("metrics: range [%d,%d) is empty", lo, hi)
	}
	return &Histogram{
		lo:       lo,
		hi:       hi,
		binWidth: float64(hi-lo) / float64(nbins),
		bins:     make([]uint64, nbins),
	}, nil
}

// Observe records one sample.
func (h *Histogram) Observe(v Sample) {
	h.total++
	switch {
	case v < h.lo:
		h.under++
	case v >= h.hi:
		h.over++
	default:
		idx := int(float64(v-h.lo) / h.binWidth)
		if idx >= len(h.bins) { // float edge case at the top boundary
			idx = len(h.bins) - 1
		}
		h.bins[idx]++
	}
}

// BinRange reports the half-open value range of bin i.
func (h *Histogram) BinRange(i int) (lo, hi float64) {
	lo = float64(h.lo) + float64(i)*h.binWidth
	return lo, lo + h.binWidth
}

// Render draws an ASCII histogram, width columns wide at the largest bin.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	var peak uint64
	for _, c := range h.bins {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	if h.under > 0 {
		fmt.Fprintf(&b, "%14s %8d\n", "<lo", h.under)
	}
	for i, c := range h.bins {
		lo, _ := h.BinRange(i)
		bar := 0
		if peak > 0 {
			bar = int(float64(c) / float64(peak) * float64(width))
		}
		fmt.Fprintf(&b, "%14.0f %8d %s\n", lo, c, strings.Repeat("#", bar))
	}
	if h.over > 0 {
		fmt.Fprintf(&b, "%14s %8d\n", ">=hi", h.over)
	}
	return b.String()
}

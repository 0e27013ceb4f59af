package metrics

import (
	"math"
	"math/bits"
)

// Log2Hist is a fixed-bucket base-2 histogram over non-negative samples
// (nanoseconds, typically). Bucket b counts samples v with
// bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b); bucket 0 counts zeros.
// The value array is inline — no pointers, no heap — so the record path
// is a bounds-checked increment and stays allocation-free, which the obs
// latency instrumentation depends on (it records inside hot paths).
//
// Quantiles are deterministic: Quantile walks the cumulative counts and
// reports the upper bound of the bucket holding the q-th sample (clamped
// to the observed maximum; 0 for the zeros bucket), so two runs
// observing the same multiset of samples report identical quantiles
// regardless of arrival order.
type Log2Hist struct {
	counts [65]uint64
	total  uint64
	max    int64
}

// log2Buckets is the number of buckets (bits.Len64 range is 0..64).
const log2Buckets = 65

// Observe records one sample; negative samples clamp to zero. It never
// allocates.
func (h *Log2Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Count reports the number of recorded samples.
func (h *Log2Hist) Count() uint64 { return h.total }

// Max reports the largest recorded sample (0 when empty).
func (h *Log2Hist) Max() int64 { return h.max }

// Bucket reports the count in bucket b (0 <= b < NumBuckets).
func (h *Log2Hist) Bucket(b int) uint64 {
	if b < 0 || b >= log2Buckets {
		return 0
	}
	return h.counts[b]
}

// NumBuckets reports the fixed bucket count.
func (h *Log2Hist) NumBuckets() int { return log2Buckets }

// BucketRange reports the half-open sample range [lo, hi) of bucket b.
// Bucket 0 is the degenerate [0, 1).
func (h *Log2Hist) BucketRange(b int) (lo, hi int64) {
	if b <= 0 {
		return 0, 1
	}
	if b >= 63 {
		// The top buckets saturate at the int64 maximum.
		return 1 << 62, int64(^uint64(0) >> 1)
	}
	return 1 << (b - 1), 1 << b
}

// Quantile reports a deterministic upper bound for the q-quantile
// (0 <= q <= 1): the upper edge of the bucket containing the ceil(q*n)-th
// smallest sample, clamped to the observed maximum. The zeros bucket
// reports 0, not its 1 ns edge. Returns 0 when empty.
func (h *Log2Hist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The relative slack absorbs float error in q*n (0.07*100 is
	// 7.000000000000001), so an exact integer product is not bumped to
	// the next rank.
	x := q * float64(h.total)
	rank := uint64(math.Ceil(x - x*1e-12))
	if rank == 0 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum uint64
	for b := 0; b < log2Buckets; b++ {
		cum += h.counts[b]
		if cum >= rank {
			if b == 0 {
				return 0
			}
			_, hi := h.BucketRange(b)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Merge folds another histogram into this one.
func (h *Log2Hist) Merge(o *Log2Hist) {
	if o == nil {
		return
	}
	for b := 0; b < log2Buckets; b++ {
		h.counts[b] += o.counts[b]
	}
	h.total += o.total
	if o.max > h.max {
		h.max = o.max
	}
}

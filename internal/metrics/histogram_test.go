package metrics

import (
	"strings"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 100, 0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := NewHistogram(100, 100, 5); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := NewHistogram(100, 0, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0)   // bin 0
	h.Observe(9)   // bin 0
	h.Observe(10)  // bin 1
	h.Observe(99)  // bin 9
	h.Observe(100) // overflow
	h.Observe(-1)  // underflow
	if h.Bin(0) != 2 {
		t.Fatalf("bin0 = %d, want 2", h.Bin(0))
	}
	if h.Bin(1) != 1 {
		t.Fatalf("bin1 = %d, want 1", h.Bin(1))
	}
	if h.Bin(9) != 1 {
		t.Fatalf("bin9 = %d, want 1", h.Bin(9))
	}
	if h.Overflow() != 1 || h.Underflow() != 1 {
		t.Fatalf("over/under = %d/%d, want 1/1", h.Overflow(), h.Underflow())
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
}

func TestHistogramNegativeRange(t *testing.T) {
	h, err := NewHistogram(-30000, 30000, 60)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(-21083)
	h.Observe(-1334)
	h.Observe(21489)
	var sum uint64
	for i := 0; i < h.NumBins(); i++ {
		sum += h.Bin(i)
	}
	if sum != 3 {
		t.Fatalf("binned = %d, want 3", sum)
	}
}

func TestHistogramBinRange(t *testing.T) {
	h, err := NewHistogram(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := h.BinRange(1)
	if lo != 25 || hi != 50 {
		t.Fatalf("BinRange(1) = [%v,%v), want [25,50)", lo, hi)
	}
}

func TestHistogramBinOutOfRange(t *testing.T) {
	h, _ := NewHistogram(0, 10, 2)
	if h.Bin(-1) != 0 || h.Bin(99) != 0 {
		t.Fatal("out-of-range Bin not zero")
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(0, 30, 3)
	for i := 0; i < 9; i++ {
		h.Observe(Sample(i))
	}
	h.Observe(15)
	h.Observe(-5)
	h.Observe(40)
	out := h.Render(10)
	if !strings.Contains(out, "#") {
		t.Fatalf("render has no bars:\n%s", out)
	}
	if !strings.Contains(out, "<lo") || !strings.Contains(out, ">=hi") {
		t.Fatalf("render missing under/overflow rows:\n%s", out)
	}
	// Default width path.
	if h.Render(0) == "" {
		t.Fatal("Render(0) empty")
	}
}

// Total reports the number of observations including under/overflow.
func (h *Histogram) Total() uint64 {
	n := h.under + h.over
	for _, c := range h.bins {
		n += c
	}
	return n
}

// Underflow reports samples below the range.
func (h *Histogram) Underflow() uint64 { return h.under }

// Overflow reports samples at or above the range top.
func (h *Histogram) Overflow() uint64 { return h.over }

// Bin reports the count in bin i.
func (h *Histogram) Bin(i int) uint64 {
	if i < 0 || i >= len(h.bins) {
		return 0
	}
	return h.bins[i]
}

// NumBins reports the configured bin count.
func (h *Histogram) NumBins() int { return len(h.bins) }

package metrics

import "testing"

func TestLog2HistBuckets(t *testing.T) {
	var h Log2Hist
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	h.Observe(-5) // clamps to 0
	if got := h.Bucket(0); got != 2 {
		t.Fatalf("bucket 0 = %d, want 2 (zero + clamped negative)", got)
	}
	if got := h.Bucket(1); got != 1 {
		t.Fatalf("bucket 1 = %d, want 1", got)
	}
	if got := h.Bucket(2); got != 2 {
		t.Fatalf("bucket 2 = %d, want 2 (samples 2,3)", got)
	}
	if got := h.Bucket(3); got != 1 {
		t.Fatalf("bucket 3 = %d, want 1 (sample 4)", got)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Max() != 4 {
		t.Fatalf("max = %d, want 4", h.Max())
	}
}

func TestLog2HistQuantile(t *testing.T) {
	var h Log2Hist
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 100 samples of 100ns, 10 of 10000ns.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10000)
	}
	p50 := h.Quantile(0.50)
	if p50 < 100 || p50 > 128 {
		t.Fatalf("p50 = %d, want within [100,128] (bucket upper bound)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 10000 || p99 > 16384 {
		t.Fatalf("p99 = %d, want within [10000,16384]", p99)
	}
	if h.Quantile(1) != 10000 {
		t.Fatalf("p100 = %d, want clamp to max 10000", h.Quantile(1))
	}

	// The zeros bucket reports 0, not its 1 ns upper edge.
	var zeros Log2Hist
	zeros.Observe(0)
	zeros.Observe(0)
	zeros.Observe(5)
	if p50 := zeros.Quantile(0.5); p50 != 0 {
		t.Fatalf("p50 over {0,0,5} = %d, want 0", p50)
	}

	// The rank is ceil(q*n): p50 of {1,100,10000} is the 2nd sample, in
	// the [64,128) bucket, not the 1st.
	var three Log2Hist
	for _, v := range []int64{1, 100, 10000} {
		three.Observe(v)
	}
	if p50 := three.Quantile(0.5); p50 != 128 {
		t.Fatalf("p50 over {1,100,10000} = %d, want 128", p50)
	}

	// q*n that is an integer up to float error keeps its rank: p99 over
	// 99 ones and one 1000 is the 99th sample, and p7 over 7 ones and 93
	// 1000s (0.07*100 = 7.000000000000001) is the 7th.
	var hundred Log2Hist
	for i := 0; i < 99; i++ {
		hundred.Observe(1)
	}
	hundred.Observe(1000)
	if p99 := hundred.Quantile(0.99); p99 != 2 {
		t.Fatalf("p99 over 99 ones and one 1000 = %d, want 2", p99)
	}
	var seven Log2Hist
	for i := 0; i < 7; i++ {
		seven.Observe(1)
	}
	for i := 0; i < 93; i++ {
		seven.Observe(1000)
	}
	if p7 := seven.Quantile(0.07); p7 != 2 {
		t.Fatalf("p7 over 7 ones and 93 1000s = %d, want 2", p7)
	}
}

func TestLog2HistQuantileOrderIndependent(t *testing.T) {
	var a, b Log2Hist
	samples := []int64{5, 900, 42, 7, 7, 123456, 1, 0, 31}
	for _, v := range samples {
		a.Observe(v)
	}
	for i := len(samples) - 1; i >= 0; i-- {
		b.Observe(samples[i])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v: %d vs %d (order-dependent)", q, a.Quantile(q), b.Quantile(q))
		}
	}
}

func TestLog2HistMerge(t *testing.T) {
	var a, b Log2Hist
	a.Observe(10)
	a.Observe(20)
	b.Observe(5000)
	a.Merge(&b)
	a.Merge(nil)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d, want 3", a.Count())
	}
	if a.Max() != 5000 {
		t.Fatalf("merged max = %d, want 5000", a.Max())
	}
}

func TestLog2HistObserveAllocFree(t *testing.T) {
	var h Log2Hist
	v := int64(1234)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 17
	}); avg > 0.001 {
		t.Fatalf("Observe allocates %v/op, want <= 0.001", avg)
	}
}

package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestReseedResets(t *testing.T) {
	r := NewRand(7)
	first := r.Uint64()
	r.Uint64()
	r.Reseed(7)
	if got := r.Uint64(); got != first {
		t.Fatalf("after reseed first draw = %d, want %d", got, first)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(9)
	child := parent.Fork()
	// The child must be deterministic given the parent seed.
	parent2 := NewRand(9)
	child2 := parent2.Fork()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("forked streams not reproducible")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Int63n(-1) did not panic")
		}
	}()
	NewRand(1).Int63n(-1)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(5)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRand(8)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(10)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", frac)
	}
}

// Property: any seed yields a usable stream whose Int63n stays in range.
func TestRandProperty(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		bound := int64(n%100) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Int63n(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

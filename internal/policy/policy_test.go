package policy

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func ct(name string, cpuID int, prio int, usage float64, period time.Duration) Contract {
	return Contract{Name: name, CPU: cpuID, Priority: prio, CPUUsage: usage, Period: period}
}

func TestContractCost(t *testing.T) {
	c := ct("x", 0, 1, 0.25, 100*time.Millisecond)
	if got := c.Cost(); got != 25*time.Millisecond {
		t.Fatalf("Cost = %v", got)
	}
	ap := ct("y", 0, 1, 0.25, 0)
	if ap.Cost() != 0 {
		t.Fatal("aperiodic cost not 0")
	}
}

func TestViewOnCPU(t *testing.T) {
	v := NewView(2, []Contract{
		ct("a", 0, 1, 0.1, time.Second),
		ct("b", 1, 1, 0.2, time.Second),
		ct("c", 0, 2, 0.3, time.Second),
	})
	if got := len(v.OnCPU(0)); got != 2 {
		t.Fatalf("OnCPU(0) = %d", got)
	}
	if got := len(v.OnCPU(1)); got != 1 {
		t.Fatalf("OnCPU(1) = %d", got)
	}
	if got := len(v.OnCPU(5)); got != 0 {
		t.Fatalf("OnCPU(5) = %d", got)
	}
}

// TestViewOnCPUAppendDoesNotAlias: snapshots share per-CPU lists, so an
// append to an OnCPU result (RMA appends its candidate) must copy rather
// than write into spare capacity a later snapshot also holds.
func TestViewOnCPUAppendDoesNotAlias(t *testing.T) {
	shared := make([]Contract, 2, 8)
	shared[0], shared[1] = ct("a", 0, 1, 0.1, time.Second), ct("b", 0, 2, 0.1, time.Second)
	first := NewViewPerCPU(1, [][]Contract{shared})
	later := NewViewPerCPU(1, [][]Contract{shared})
	grown := append(first.OnCPU(0), ct("x", 0, 3, 0.1, time.Second))
	RMA{}.Admit(first, ct("y", 0, 4, 0.1, time.Second))
	if len(grown) != 3 || grown[2].Name != "x" {
		t.Fatalf("append result = %+v", grown)
	}
	if on := later.OnCPU(0); len(on) != 2 || on[0].Name != "a" || on[1].Name != "b" {
		t.Fatalf("later snapshot changed: %+v", on)
	}
	if spare := shared[:3][2]; spare.Name != "" {
		t.Fatalf("append wrote into shared storage: %+v", spare)
	}
}

// TestViewAllNameOrder: every per-CPU list is name-ordered whatever the
// input order, and Load sums a CPU in that order.
func TestViewAllNameOrder(t *testing.T) {
	v := NewView(2, []Contract{
		ct("d", 1, 1, 0.1, time.Second),
		ct("a", 0, 1, 0.2, time.Second),
		ct("c", 0, 1, 0.3, time.Second),
		ct("b", 3, 1, 0.4, time.Second), // beyond numCPUs: the table grows
	})
	for cpu, want := range map[int]string{0: "a,c", 1: "d", 2: "", 3: "b"} {
		var names []string
		for _, c := range v.OnCPU(cpu) {
			names = append(names, c.Name)
		}
		if got := strings.Join(names, ","); got != want {
			t.Fatalf("OnCPU(%d) = %s, want %s", cpu, got, want)
		}
	}
	if got := v.Load(0); got != 0.2+0.3 {
		t.Fatalf("Load(0) = %v", got)
	}
	if got := v.Load(3); got != 0.4 {
		t.Fatalf("Load(3) = %v", got)
	}
}

// TestCPULocalCapability: the built-in resolvers declare CPU locality, a
// Func cannot, and a chain is local only when every member is.
func TestCPULocalCapability(t *testing.T) {
	for _, r := range []Resolver{Utilization{}, RMA{}, EDF{}, Static{}, Chain{Utilization{}, Static{AdmitAll: true}}} {
		if !IsCPULocal(r) {
			t.Errorf("%s: want CPU-local", r.Name())
		}
	}
	f := Func{Label: "f", F: func(View, Contract) Decision { return Decision{Admit: true} }}
	for _, r := range []Resolver{f, Chain{Utilization{}, f}} {
		if IsCPULocal(r) {
			t.Errorf("%s: want not CPU-local", r.Name())
		}
	}
}

// TestLoadOnlyCapability: Utilization, EDF and Static decide a constant
// candidate on Load alone, with upward-closed denials; RMA reads the
// contract list, a Func may read anything, and a chain is load-only only
// when every member is, nested chains included.
func TestLoadOnlyCapability(t *testing.T) {
	f := Func{Label: "f", F: func(View, Contract) Decision { return Decision{Admit: true} }}
	for _, tc := range []struct {
		r    Resolver
		want bool
	}{
		{Utilization{}, true},
		{Utilization{Bound: 0.7}, true},
		{EDF{}, true},
		{Static{}, true},
		{Static{AdmitAll: true}, true},
		{Chain{}, true},
		{Chain{Utilization{}, EDF{}, Static{AdmitAll: true}}, true},
		{Chain{Chain{Utilization{}}, EDF{}}, true},
		{RMA{}, false},
		{f, false},
		{Chain{Utilization{}, RMA{}}, false},
		{Chain{Utilization{}, f}, false},
		{Chain{Chain{Utilization{}, f}, EDF{}}, false},
	} {
		if got := IsLoadOnly(tc.r); got != tc.want {
			t.Errorf("IsLoadOnly(%s) = %v, want %v", tc.r.Name(), got, tc.want)
		}
	}
}

// TestLoadOnlyDenyUpwardClosed: on seeded list-free views, whenever
// Utilization (default and custom bounds) or EDF denies usage u at load
// L, it denies every u' ≥ u at the same L. Usages are drawn around the
// bound (u = bound − L ± a few ulps and ± eps) as well as uniformly, so
// the comparison's rounding edge is exercised.
func TestLoadOnlyDenyUpwardClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	resolvers := []Resolver{Utilization{}, Utilization{Bound: 0.75}, EDF{}}
	bounds := []float64{1, 0.75, 1}
	const eps = 1e-9
	for i := 0; i < 100_000; i++ {
		k := rng.Intn(len(resolvers))
		r, bound := resolvers[k], bounds[k]
		load := rng.Float64() * 1.2
		view := View{NumCPUs: 1, CPULoad: []float64{load}}
		u := rng.Float64()
		if rng.Intn(2) == 0 {
			u = bound - load + float64(rng.Intn(3)-1)*eps
			for n := rng.Intn(5) - 2; n != 0; {
				if n > 0 {
					u, n = math.Nextafter(u, 2), n-1
				} else {
					u, n = math.Nextafter(u, -2), n+1
				}
			}
		}
		if r.Admit(view, Contract{CPUUsage: u}).Admit {
			continue
		}
		for _, up := range []float64{u, math.Nextafter(u, 2), u + rng.Float64()*1e-9, u + rng.Float64()} {
			if r.Admit(view, Contract{CPUUsage: up}).Admit {
				t.Fatalf("%s at load %v denies usage %v but admits %v", r.Name(), load, u, up)
			}
		}
	}
}

// TestAppendFixed3MatchesFmt holds appendFixed3 to fmt's %.3f on 1.2M
// seeded values: random bit patterns (NaN, ±Inf and huge values take the
// strconv path), magnitudes spread over the fast range and across its
// 2^42 edge, exact binary ties (odd multiples of 1/16, whose product by
// 1000 ends in .5), sums of multiples of 0.0005 (decimal near-ties) and
// signed zeros.
func TestAppendFixed3MatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	check := func(x float64) {
		buf = appendFixed3(buf[:0], x)
		if want := fmt.Sprintf("%.3f", x); string(buf) != want {
			t.Fatalf("appendFixed3(%v [%#x]) = %q, want %q", x, math.Float64bits(x), buf, want)
		}
	}
	sign := func(x float64) float64 {
		if rng.Intn(2) == 0 {
			return -x
		}
		return x
	}
	check(0)
	check(math.Copysign(0, -1))
	sum := 0.0
	for i := 0; i < 200_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(sign(math.Exp2(rng.Float64()*60 - 30)))
		check(sign(math.Exp2(42 + rng.NormFloat64())))
		check(sign(float64(2*rng.Int63n(1<<44)+1) / 16))
		check(sign(float64(rng.Int63n(1<<30)) * 0.0005))
		sum += 0.0005 * float64(1+rng.Intn(9))
		check(sum)
	}
}

// TestReasonRenderMatchesFmt: the Utilization, EDF and Chain reasons,
// rendered without fmt, equal the %d / %.3f formats byte for byte —
// on NaN, ±Inf, −0, exact halves, large values and negative CPUs.
func TestReasonRenderMatchesFmt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []float64{0, negZero, 0.5, 1, 1.0005, 0.0625, 0.1875, 2.5e-4, 0.9995,
		1.0000000001, 123456.789, 1e22, 1e300, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	// A CPULoad of −0 keeps a −0 candidate's sum −0.
	load := make([]float64, 20)
	for i := range load {
		load[i] = negZero
	}
	view := View{NumCPUs: 20, CPULoad: load}
	for _, cpu := range []int{0, 3, 17, -2} {
		for _, x := range values {
			cand := Contract{Name: "cand", CPU: cpu, CPUUsage: x}
			sum := x + view.Load(cpu)
			for _, bound := range []float64{0, 0.5, 1.0005, 1e300, math.NaN(), math.Inf(1)} {
				b := bound
				if b <= 0 {
					b = 1.0
				}
				verb := "within"
				if sum > b+1e-9 {
					verb = "exceeds"
				}
				want := fmt.Sprintf("cpu%d budget %.3f "+verb+" bound %.3f", cpu, sum, b)
				if got := (Utilization{Bound: bound}).Admit(view, cand).Reason; got != want {
					t.Errorf("utilization(%v, bound %v): %q, want %q", x, bound, got, want)
				}
			}
			want := fmt.Sprintf("cpu%d density %.3f ≤ 1", cpu, sum)
			if sum > 1+1e-9 {
				want = fmt.Sprintf("cpu%d density %.3f exceeds 1", cpu, sum)
			}
			if got := (EDF{}).Admit(view, cand).Reason; got != want {
				t.Errorf("edf(%v): %q, want %q", x, got, want)
			}
		}
	}
	ch := Chain{Static{AdmitAll: true}, Static{AdmitAll: true, Label: "b"}}
	if got, want := ch.Admit(View{}, Contract{Name: "x"}).Reason, fmt.Sprintf("all %d resolvers admitted %s", 2, "x"); got != want {
		t.Errorf("chain: %q, want %q", got, want)
	}
}

func TestUtilizationAdmission(t *testing.T) {
	u := Utilization{} // default bound 1.0
	view := NewView(1, []Contract{
		ct("a", 0, 1, 0.5, time.Second),
	})
	if d := u.Admit(view, ct("b", 0, 2, 0.4, time.Second)); !d.Admit {
		t.Fatalf("0.9 total denied: %s", d.Reason)
	}
	if d := u.Admit(view, ct("b", 0, 2, 0.6, time.Second)); d.Admit {
		t.Fatalf("1.1 total admitted: %s", d.Reason)
	}
	// Exactly at the bound is admitted.
	if d := u.Admit(view, ct("b", 0, 2, 0.5, time.Second)); !d.Admit {
		t.Fatalf("1.0 exact denied: %s", d.Reason)
	}
}

func TestUtilizationPerCPU(t *testing.T) {
	u := Utilization{}
	view := NewView(2, []Contract{
		ct("a", 0, 1, 0.9, time.Second),
	})
	// CPU 1 is free even though CPU 0 is nearly full.
	if d := u.Admit(view, ct("b", 1, 1, 0.9, time.Second)); !d.Admit {
		t.Fatalf("other CPU denied: %s", d.Reason)
	}
	if d := u.Admit(view, ct("b", 0, 1, 0.2, time.Second)); d.Admit {
		t.Fatalf("overloaded CPU admitted: %s", d.Reason)
	}
}

func TestUtilizationCustomBound(t *testing.T) {
	u := Utilization{Bound: 0.69} // RMA-ish guard band
	view := View{NumCPUs: 1}
	if d := u.Admit(view, ct("a", 0, 1, 0.5, time.Second)); !d.Admit {
		t.Fatal("0.5 denied under 0.69 bound")
	}
	if d := u.Admit(view, ct("a", 0, 1, 0.7, time.Second)); d.Admit {
		t.Fatal("0.7 admitted under 0.69 bound")
	}
}

func TestRMAClassicSchedulableSet(t *testing.T) {
	// Liu & Layland classic: three tasks, U = 0.2+0.2+0.2 = 0.6 — trivially
	// schedulable under RMA.
	r := RMA{}
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.2, 10*time.Millisecond),
		ct("t2", 0, 2, 0.2, 20*time.Millisecond),
	})
	if d := r.Admit(view, ct("t3", 0, 3, 0.2, 50*time.Millisecond)); !d.Admit {
		t.Fatalf("schedulable set denied: %s", d.Reason)
	}
}

func TestRMAUnschedulableSet(t *testing.T) {
	// Total utilization 1.1 on one CPU can never be schedulable.
	r := RMA{}
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.6, 10*time.Millisecond),
	})
	if d := r.Admit(view, ct("t2", 0, 2, 0.5, 14*time.Millisecond)); d.Admit {
		t.Fatalf("overloaded set admitted: %s", d.Reason)
	}
}

func TestRMATightButSchedulable(t *testing.T) {
	// U ≈ 0.83 > Liu-Layland bound for 2 tasks (0.828) but exact analysis
	// proves it schedulable: C1=2,T1=4 (prio 1); C2=2,T2=6 (prio 2).
	// R2 = 2 + ceil(R2/4)*2 → R2 = 6 ≤ 6.
	r := RMA{}
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.5, 4*time.Millisecond),
	})
	d := r.Admit(view, ct("t2", 0, 2, 2.0/6.0, 6*time.Millisecond))
	if !d.Admit {
		t.Fatalf("exact-analysis schedulable set denied: %s", d.Reason)
	}
}

func TestRMARespectsDeclaredPriorityNotRate(t *testing.T) {
	// Priority inversion declared on purpose: long-period task has the
	// higher priority. C_long=5,T_long=10 at prio 1; C_short=2,T_short=4 at
	// prio 2. R_short = 2 + 5 = 7 > 4 → unschedulable with these
	// priorities (rate-monotonic assignment would have worked).
	r := RMA{}
	view := NewView(1, []Contract{
		ct("long", 0, 1, 0.5, 10*time.Millisecond),
	})
	if d := r.Admit(view, ct("short", 0, 2, 0.5, 4*time.Millisecond)); d.Admit {
		t.Fatalf("declared-priority inversion admitted: %s", d.Reason)
	}
}

func TestRMAIgnoresAperiodicAndOtherCPUs(t *testing.T) {
	r := RMA{}
	view := NewView(2, []Contract{
		ct("ap", 0, 0, 0, 0),                        // aperiodic: no cost
		ct("other", 1, 0, 0.9, 10*time.Millisecond), // other CPU
	})
	if d := r.Admit(view, ct("t", 0, 1, 0.9, 10*time.Millisecond)); !d.Admit {
		t.Fatalf("denied: %s", d.Reason)
	}
}

func TestEDFDensityBound(t *testing.T) {
	e := EDF{}
	view := NewView(1, []Contract{
		ct("a", 0, 1, 0.6, 10*time.Millisecond),
	})
	// EDF admits up to density exactly 1 (where RMA's fixed priorities may
	// fail).
	if d := e.Admit(view, ct("b", 0, 2, 0.4, 7*time.Millisecond)); !d.Admit {
		t.Fatalf("density 1.0 denied: %s", d.Reason)
	}
	if d := e.Admit(view, ct("b", 0, 2, 0.41, 7*time.Millisecond)); d.Admit {
		t.Fatalf("density 1.01 admitted: %s", d.Reason)
	}
}

func TestEDFAdmitsWhereRMADenies(t *testing.T) {
	// U = 1.0 with fixed priorities fails exact RMA analysis here, but EDF
	// admits: the crossover the resolver ablation bench demonstrates.
	view := NewView(1, []Contract{
		ct("t1", 0, 1, 0.5, 4*time.Millisecond),
	})
	cand := ct("t2", 0, 2, 0.5, 6*time.Millisecond)
	if d := (RMA{}).Admit(view, cand); d.Admit {
		t.Fatalf("RMA admitted density-1.0 set: %s", d.Reason)
	}
	if d := (EDF{}).Admit(view, cand); !d.Admit {
		t.Fatalf("EDF denied density-1.0 set: %s", d.Reason)
	}
}

func TestChain(t *testing.T) {
	view := View{NumCPUs: 1}
	cand := ct("c", 0, 1, 0.5, time.Second)
	ok := Chain{Utilization{}, Static{AdmitAll: true}}
	if d := ok.Admit(view, cand); !d.Admit {
		t.Fatalf("chain denied: %s", d.Reason)
	}
	mixed := Chain{Utilization{}, Static{AdmitAll: false}}
	d := mixed.Admit(view, cand)
	if d.Admit {
		t.Fatal("chain with denier admitted")
	}
	if !strings.Contains(d.Reason, "always-deny") {
		t.Fatalf("reason %q does not name the denier", d.Reason)
	}
	if !strings.Contains(ok.Name(), "utilization") {
		t.Fatalf("chain name = %q", ok.Name())
	}
}

func TestStaticAndFunc(t *testing.T) {
	if !(Static{AdmitAll: true}).Admit(View{}, Contract{}).Admit {
		t.Fatal("static admit broken")
	}
	if (Static{}).Admit(View{}, Contract{}).Admit {
		t.Fatal("static deny broken")
	}
	if (Static{Label: "custom"}).Name() != "custom" {
		t.Fatal("label ignored")
	}
	f := Func{Label: "odd-only", F: func(v View, c Contract) Decision {
		if c.Priority%2 == 1 {
			return Decision{Admit: true}
		}
		return Decision{Admit: false, Reason: "even priority"}
	}}
	if !f.Admit(View{}, ct("a", 0, 1, 0, 0)).Admit {
		t.Fatal("func admit broken")
	}
	if f.Admit(View{}, ct("a", 0, 2, 0, 0)).Admit {
		t.Fatal("func deny broken")
	}
	if f.Name() != "odd-only" {
		t.Fatal("func name broken")
	}
}

// Property: RMA is never more permissive than EDF (fixed-priority
// schedulability implies density ≤ 1 for implicit deadlines), and
// utilization-1.0 equals EDF on identical inputs.
func TestResolverDominanceProperty(t *testing.T) {
	prop := func(us [4]uint8, ps [4]uint8) bool {
		var admitted []Contract
		view := NewView(1, nil)
		var cands []Contract
		for i := 0; i < 4; i++ {
			u := float64(us[i]%60) / 100 // 0..0.59
			period := time.Duration(1+ps[i]%20) * time.Millisecond
			cands = append(cands, ct(string(rune('a'+i)), 0, i, u, period))
		}
		// Dominance must hold pointwise on a shared view: grow the view
		// only with contracts both policies accept.
		for _, c := range cands {
			rmaOK := RMA{}.Admit(view, c).Admit
			edfOK := EDF{}.Admit(view, c).Admit
			if rmaOK && !edfOK {
				return false // FP-schedulable implies density ≤ 1
			}
			if rmaOK && edfOK {
				admitted = append(admitted, c)
				view = NewView(1, admitted)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

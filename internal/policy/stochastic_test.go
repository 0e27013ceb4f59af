package policy

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseDistGrammar(t *testing.T) {
	cases := []struct {
		in   string
		want string // canonical String(); "" = parse error expected
	}{
		{"normal(0.3,0.05)", "normal(0.3,0.05)"},
		{" normal( 0.3 , 0.05 ) ", "normal(0.3,0.05)"},
		{"lognormal(-1.2,0.4)", "lognormal(-1.2,0.4)"},
		{"empirical(0.1:1,0.2:2,0.4:1)", "empirical(0.1:1,0.2:2,0.4:1)"},
		{"normal(0.3)", ""},
		{"normal(0.3,0.05,7)", ""},
		{"normal(a,b)", ""},
		{"normal(0.3,-0.1)", ""},
		{"normal(-0.3,0.1)", ""},
		{"normal(NaN,0.1)", ""},
		{"normal(+Inf,0.1)", ""},
		{"weibull(1,2)", ""},
		{"normal", ""},
		{"", ""},
		{"empirical()", ""},
		{"empirical(0.1)", ""},
		{"empirical(0.1:0)", ""},
		{"empirical(0.1:-1)", ""},
		{"empirical(-0.1:1)", ""},
		{"empirical(0.1:1:2)", ""},
	}
	for _, c := range cases {
		d, err := ParseDist(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseDist(%q): want error, got %v", c.in, d)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDist(%q): %v", c.in, err)
			continue
		}
		if got := d.String(); got != c.want {
			t.Errorf("ParseDist(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical form is a parse fixed point.
		d2, err := ParseDist(d.String())
		if err != nil {
			t.Errorf("reparse %q: %v", d.String(), err)
		} else if d2.String() != d.String() {
			t.Errorf("String not a fixed point: %q -> %q", d.String(), d2.String())
		}
	}
}

func TestDistMeanAndSample(t *testing.T) {
	r := sim.NewRand(7)
	for _, in := range []string{
		"normal(0.3,0.05)",
		"lognormal(-1.2,0.4)",
		"empirical(0.1:1,0.2:2,0.4:1)",
	} {
		d, err := ParseDist(in)
		if err != nil {
			t.Fatalf("ParseDist(%q): %v", in, err)
		}
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			v := d.Sample(r)
			if v < 0 {
				t.Fatalf("%s: negative sample %v", in, v)
			}
			sum += v
		}
		got, want := sum/n, d.Mean()
		if math.Abs(got-want) > 0.02*math.Max(want, 0.1) {
			t.Errorf("%s: sample mean %.4f, analytic mean %.4f", in, got, want)
		}
	}
}

func TestSampleDeterministic(t *testing.T) {
	d, _ := ParseDist("normal(0.3,0.05)")
	a, b := sim.NewRand(42), sim.NewRand(42)
	for i := 0; i < 100; i++ {
		if x, y := d.Sample(a), d.Sample(b); x != y {
			t.Fatalf("draw %d diverged: %v vs %v", i, x, y)
		}
	}
}

func TestUtilizationLegacyPathUnchanged(t *testing.T) {
	// Without distributions the verdict and the reason string must be
	// exactly the pre-stochastic ones (deny spans pin these strings).
	view := NewView(1, []Contract{{Name: "a", CPU: 0, CPUUsage: 0.6}})
	view.CPULoad = []float64{0.6}
	u := Utilization{}
	d := u.Admit(view, Contract{Name: "b", CPU: 0, CPUUsage: 0.3})
	if !d.Admit || d.Reason != "cpu0 budget 0.900 within bound 1.000" {
		t.Fatalf("legacy admit changed: %+v", d)
	}
	d = u.Admit(view, Contract{Name: "c", CPU: 0, CPUUsage: 0.5})
	if d.Admit || d.Reason != "cpu0 budget 1.100 exceeds bound 1.000" {
		t.Fatalf("legacy deny changed: %+v", d)
	}
}

func TestStochasticAdmission(t *testing.T) {
	dist, err := ParseDist("normal(0.3,0.02)")
	if err != nil {
		t.Fatal(err)
	}
	u := Utilization{}
	view := NewView(1, []Contract{{Name: "a", CPU: 0, CPUUsage: 0.5}})
	view.Stochastic = true

	// Plenty of headroom: 0.5 + N(0.3, 0.02) ≤ 1.0 essentially always.
	cand := Contract{Name: "b", CPU: 0, CPUUsage: 0.3, Budget: dist, MetP: 0.99}
	d := u.Admit(view, cand)
	if !d.Admit {
		t.Fatalf("want admit with headroom, got %+v", d)
	}
	if !strings.Contains(d.Reason, "trials") {
		t.Fatalf("stochastic reason missing trial count: %q", d.Reason)
	}

	// The same distribution against a nearly full CPU: mean load 1.1,
	// P(met) ~ 0 — must deny even though a mean-based test would too,
	// and the reason must carry the probabilities.
	full := NewView(1, []Contract{{Name: "a", CPU: 0, CPUUsage: 0.8}})
	full.Stochastic = true
	d = u.Admit(full, cand)
	if d.Admit {
		t.Fatalf("want deny at mean load 1.1, got %+v", d)
	}
	if !strings.Contains(d.Reason, "below p=") {
		t.Fatalf("deny reason: %q", d.Reason)
	}

	// The stochastic win: constant admission at 0.72+0.3 > 1.0 would
	// deny a constant 0.3 budget at bound 1.0 with eps, but N(0.25,0.02)
	// declared with nominal 0.3 clears p=0.95 because the actual draw is
	// almost always under 0.28.
	tight := NewView(1, []Contract{{Name: "a", CPU: 0, CPUUsage: 0.71}})
	tight.Stochastic = true
	lean, _ := ParseDist("normal(0.25,0.01)")
	d = u.Admit(tight, Contract{Name: "b", CPU: 0, CPUUsage: 0.3, Budget: lean, MetP: 0.95})
	if !d.Admit {
		t.Fatalf("stochastic admission should clear where constant denies: %+v", d)
	}
	if d2 := u.Admit(tight, Contract{Name: "b", CPU: 0, CPUUsage: 0.3}); d2.Admit {
		t.Fatalf("constant contract should deny at 1.01: %+v", d2)
	}
}

func TestStochasticVerdictDeterministic(t *testing.T) {
	dist, _ := ParseDist("normal(0.3,0.05)")
	onCPU := []Contract{
		{Name: "a", CPU: 0, CPUUsage: 0.3, Budget: dist, MetP: 0.97},
		{Name: "b", CPU: 0, CPUUsage: 0.2},
	}
	cand := Contract{Name: "c", CPU: 0, CPUUsage: 0.3, Budget: dist, MetP: 0.99}
	v1, ok1 := MCVerdict(1.0, 0.5, onCPU, cand)
	v2, ok2 := MCVerdict(1.0, 0.5, onCPU, cand)
	if !ok1 || !ok2 || v1 != v2 {
		t.Fatalf("verdict not deterministic: %+v vs %+v", v1, v2)
	}
	if v1.Required != 0.99 {
		t.Fatalf("required p should be the strictest declared: %+v", v1)
	}
	// No stochastic participants → fall back to the constant test.
	if _, ok := MCVerdict(1.0, 0.2, []Contract{{Name: "x", CPU: 0, CPUUsage: 0.2}}, Contract{Name: "y", CPU: 0, CPUUsage: 0.1}); ok {
		t.Fatal("MCVerdict should report not-stochastic without distributions")
	}
}

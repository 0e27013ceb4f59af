package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rtos"
)

func TestLatencyConfigLabel(t *testing.T) {
	cases := []struct {
		cfg  LatencyConfig
		want string
	}{
		{LatencyConfig{Hybrid: true, Mode: rtos.LightLoad}, "HRC (light)"},
		{LatencyConfig{Hybrid: false, Mode: rtos.LightLoad}, "Pure RTAI (light)"},
		{LatencyConfig{Hybrid: true, Mode: rtos.StressLoad}, "HRC (stress)"},
		{LatencyConfig{Hybrid: false, Mode: rtos.StressLoad}, "Pure RTAI (stress)"},
	}
	for _, c := range cases {
		if got := c.cfg.Label(); got != c.want {
			t.Errorf("Label = %q, want %q", got, c.want)
		}
	}
}

func TestRunLatencyPureLight(t *testing.T) {
	res, err := RunLatency(LatencyConfig{Samples: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Row.N < 5000 || res.Row.N > 5010 {
		t.Fatalf("samples = %d, want ~5000", res.Row.N)
	}
	// Light regime: mean near zero, bounded by ±5µs.
	if math.Abs(res.Row.Average) > 5000 {
		t.Fatalf("light mean = %v ns", res.Row.Average)
	}
	if res.Misses != 0 || res.Skips != 0 {
		t.Fatalf("misses/skips = %d/%d", res.Misses, res.Skips)
	}
	if res.Display.N == 0 {
		t.Fatal("display collected no samples")
	}
}

func TestRunLatencyHybridStress(t *testing.T) {
	res, err := RunLatency(LatencyConfig{Hybrid: true, Mode: rtos.StressLoad, Samples: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Stress regime: strongly negative mean, tight spread.
	if res.Row.Average > -15000 || res.Row.Average < -28000 {
		t.Fatalf("stress mean = %v ns", res.Row.Average)
	}
	if res.Row.AveDev > 3000 {
		t.Fatalf("stress avedev = %v ns", res.Row.AveDev)
	}
}

func TestTable1Shape(t *testing.T) {
	var rows []metrics.Row
	for _, cfg := range Table1Configs(8000, 11) {
		res, err := RunLatency(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, res.Row)
	}
	hrcLight, pureLight, hrcStress, pureStress := rows[0], rows[1], rows[2], rows[3]

	// Paper's comparative claims:
	// (1) HRC ≈ pure RTAI in both modes (means differ by less than one
	//     light-mode AVEDEV).
	if d := math.Abs(hrcLight.Average - pureLight.Average); d > pureLight.AveDev {
		t.Errorf("light HRC vs pure differ by %v ns (avedev %v)", d, pureLight.AveDev)
	}
	if d := math.Abs(hrcStress.Average - pureStress.Average); d > 10*pureStress.AveDev {
		t.Errorf("stress HRC vs pure differ by %v ns", d)
	}
	// (2) Light: near-zero mean, wide spread. Stress: ≈ -21 µs, tight.
	if math.Abs(pureLight.Average) > 5000 {
		t.Errorf("pure light mean = %v", pureLight.Average)
	}
	if pureStress.Average > -15000 {
		t.Errorf("pure stress mean = %v", pureStress.Average)
	}
	if pureLight.AveDev < 4*pureStress.AveDev {
		t.Errorf("spread regimes: light %v vs stress %v", pureLight.AveDev, pureStress.AveDev)
	}
	// (3) The 30 µs latency guarantee the paper highlights.
	for _, r := range rows {
		if r.Min < -35000 || r.Max > 35000 {
			t.Errorf("%s outside ±35µs envelope: min %d max %d", r.Label, r.Min, r.Max)
		}
	}
}

func TestDeterministicRows(t *testing.T) {
	a, err := RunLatency(LatencyConfig{Samples: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLatency(LatencyConfig{Samples: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Row.Average != b.Row.Average || a.Row.Min != b.Row.Min || a.Row.Max != b.Row.Max {
		t.Fatalf("same seed produced different rows: %+v vs %+v", a.Row, b.Row)
	}
}

func TestDynamicityScenario(t *testing.T) {
	res, err := RunDynamicityScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 5 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	if res.Steps[0].DispState != "UNSATISFIED" {
		t.Fatalf("step1 disp = %s", res.Steps[0].DispState)
	}
	if res.Steps[1].CalcState != "ACTIVE" || res.Steps[1].DispState != "ACTIVE" {
		t.Fatalf("step2 = %+v", res.Steps[1])
	}
	if res.Steps[3].DispState != "UNSATISFIED" {
		t.Fatalf("step4 disp = %s", res.Steps[3].DispState)
	}
	if res.Steps[4].DispState != "ACTIVE" {
		t.Fatalf("step5 disp = %s", res.Steps[4].DispState)
	}
	if len(res.Events) == 0 {
		t.Fatal("no lifecycle events recorded")
	}
	for _, ev := range res.Events {
		if ev.From != 0 && !core.CanTransition(ev.From, ev.To) {
			t.Fatalf("illegal transition in scenario: %v", ev)
		}
	}
}

func TestOversubscribedSet(t *testing.T) {
	comps, err := OversubscribedSet(10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 10 {
		t.Fatalf("n = %d", len(comps))
	}
	var total float64
	for _, c := range comps {
		total += c.CPUUsage
	}
	if math.Abs(total-1.5) > 0.01 {
		t.Fatalf("total usage = %v", total)
	}
	if _, err := OversubscribedSet(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := OversubscribedSet(101, 1); err == nil {
		t.Fatal("n=101 accepted")
	}
}

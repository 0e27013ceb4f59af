package workload

import (
	"testing"
)

// The ISSUE-10 acceptance gate, workload half: the predictive guard must
// beat the reactive one on the same drift (strictly fewer hard misses at
// equal-or-better availability), the campaign must be byte-deterministic
// across reruns, and the estimator must converge — forecasting the
// violation strictly before the first hard miss across a seed sweep
// while never firing on stationary seeds.

// TestPredictAblation pins the headline claim: on the same seed and the
// same drift, forecasting strictly reduces hard deadline misses without
// giving up availability.
func TestPredictAblation(t *testing.T) {
	reactive, err := RunPredictCampaign(PredictConfig{Predictive: false})
	if err != nil {
		t.Fatal(err)
	}
	predictive, err := RunPredictCampaign(PredictConfig{Predictive: true})
	if err != nil {
		t.Fatal(err)
	}
	if reactive.HardMisses == 0 {
		t.Fatal("reactive baseline recorded no hard misses; the drift is not biting")
	}
	if predictive.HardMisses >= reactive.HardMisses {
		t.Errorf("predictive misses = %d, want strictly fewer than reactive %d",
			predictive.HardMisses, reactive.HardMisses)
	}
	if predictive.Availability < reactive.Availability {
		t.Errorf("predictive availability %.4f < reactive %.4f",
			predictive.Availability, reactive.Availability)
	}
	if predictive.ForecastAt == 0 {
		t.Error("predictive run never forecast")
	}
	if predictive.PredictDowngrades == 0 {
		t.Error("predictive run never stepped down on a forecast")
	}
	if predictive.ForecastAt == 0 || predictive.ForecastAt >= reactive.FirstMissAt {
		t.Errorf("predictive forecast at %v, want strictly before the reactive first miss at %v",
			predictive.ForecastAt, reactive.FirstMissAt)
	}
	if reactive.ForecastAt != 0 || reactive.PredictDowngrades != 0 {
		t.Errorf("reactive baseline forecast (at=%v, downs=%d); the ablation arms are crossed",
			reactive.ForecastAt, reactive.PredictDowngrades)
	}
}

// TestPredictDeterminism reruns the identical config: every digest and
// counter must be byte-identical.
func TestPredictDeterminism(t *testing.T) {
	cfg := PredictConfig{Predictive: true}
	a, err := RunPredictCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPredictCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Errorf("guard trace digest differs across reruns: %s vs %s", a.TraceDigest, b.TraceDigest)
	}
	if a.SpanDigest != b.SpanDigest {
		t.Errorf("span digest differs across reruns: %s vs %s", a.SpanDigest, b.SpanDigest)
	}
	if a.HardMisses != b.HardMisses || a.FirstMissAt != b.FirstMissAt || a.ForecastAt != b.ForecastAt {
		t.Errorf("counters differ across reruns: %+v vs %+v", a, b)
	}
}

// TestPredictShardInvariance pins both ablation arms' guard trace
// digest, span digest and hard-miss count — the values every DRCR
// stripe count reproduced before the DRCR had one lock.
func TestPredictShardInvariance(t *testing.T) {
	for _, c := range []struct {
		predictive  bool
		trace, span string
		misses      uint64
	}{
		{false, "0dad9d96c491fb64f44b2300069b06317ccaca2d9cf9122365f3fc482145106f",
			"d9f8cb4573af7bb76ab2105908ebd75c9d55ef0ea70ea7f8d862b44bda6b7884", 2},
		{true, "adde067d81cd1ec6b67628c40e648c38e4088a0b4961a54afa9677d8a452dac3",
			"1606384ba5727dc5a27582ccf4548d3104b2cd2d93b5a89a600a1afe934adadb", 0},
	} {
		got, err := RunPredictCampaign(PredictConfig{Predictive: c.predictive})
		if err != nil {
			t.Fatal(err)
		}
		if got.TraceDigest != c.trace {
			t.Errorf("pred=%v: guard trace digest %s, pinned %s", c.predictive, got.TraceDigest, c.trace)
		}
		if got.SpanDigest != c.span {
			t.Errorf("pred=%v: span digest %s, pinned %s", c.predictive, got.SpanDigest, c.span)
		}
		if got.HardMisses != c.misses {
			t.Errorf("pred=%v: misses %d, pinned %d", c.predictive, got.HardMisses, c.misses)
		}
	}
}

// TestPredictConvergenceAcrossSeeds sweeps 20 seeds: in at least 95% of
// them the forecast must fire strictly before the run's first hard miss
// (or prevent misses outright). One straggler is tolerated — the jitter
// draw can put the miss onset inside the estimator's minimum window.
func TestPredictConvergenceAcrossSeeds(t *testing.T) {
	const seeds = 20
	converged := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := RunPredictCampaign(PredictConfig{Predictive: true, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ok := res.ForecastAt > 0 && (res.FirstMissAt == 0 || res.ForecastAt < res.FirstMissAt)
		if ok {
			converged++
		} else {
			t.Logf("seed %d did not converge: forecastAt=%v firstMiss=%v misses=%d",
				seed, res.ForecastAt, res.FirstMissAt, res.HardMisses)
		}
	}
	if converged < seeds*95/100 {
		t.Errorf("forecast preceded the first hard miss in only %d/%d seeds, want >= 95%%", converged, seeds)
	}
}

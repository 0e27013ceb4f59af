package workload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Pinned goldens for the default degradation campaign (seed 1). Any
// change to admission order, the guard ladder, the supervisor, or span
// emission shows up here first.
const (
	degradeSpanGolden = "d95642c09e300077b591972ee303fc8c5db4dbc39464216aeb77320bee237326"
	degradeSpanCount  = 34
	binarySpanGolden  = "7025b13dd7cf37800ce13b0bf5a1006fc20a8718077aab51842abfa1fb31c815"
	binarySpanCount   = 30
)

// TestDegradeCampaignGolden pins the graceful run end to end: zaux —
// denied outright by a binary resolver — is admitted degraded and stays
// serving; calc rides the guard's step-down ladder through the fault and
// auto-re-promotes to the full contract after it clears; the crashed
// zaux comes back through a supervised restart. Byte-identical spans.
func TestDegradeCampaignGolden(t *testing.T) {
	res, err := RunDegradeCampaign(DegradeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Availability: nobody is ever denied service except zaux's brief
	// crash-to-restart gap.
	if res.Availability["calc"] != 1 || res.Availability["disp"] != 1 {
		t.Errorf("calc/disp availability = %v/%v, want 1/1",
			res.Availability["calc"], res.Availability["disp"])
	}
	if a := res.Availability["zaux"]; a < 0.95 || a >= 1 {
		t.Errorf("zaux availability = %v, want just under 1 (crash gap only)", a)
	}
	// The infeasible full contract was never denied — it was admitted
	// degraded (downgrade-before-deny), and the ladder never revoked.
	if res.Denies != 0 || res.Revokes != 0 {
		t.Errorf("denies=%d revokes=%d, want 0/0", res.Denies, res.Revokes)
	}
	var admittedDegraded bool
	for _, sp := range res.Spans {
		if sp.Kind == obs.KindDowngrade && sp.Component == "zaux" &&
			strings.Contains(sp.Detail, "downgrade-before-deny") {
			admittedDegraded = true
		}
	}
	if !admittedDegraded {
		t.Error("no downgrade-before-deny span for zaux")
	}
	// calc returned to mode 0 a bounded time after the fault cleared.
	if res.TimeToRepromo != 220*time.Millisecond {
		t.Errorf("time-to-repromotion = %v, want 220ms", res.TimeToRepromo)
	}
	for _, info := range res.Final {
		switch info.Name {
		case "calc", "disp":
			if info.State != core.Active || info.Mode != 0 {
				t.Errorf("%s final = %v mode %d, want ACTIVE at full contract", info.Name, info.State, info.Mode)
			}
		case "zaux":
			if info.State != core.Active || info.ModeName != "lite" {
				t.Errorf("zaux final = %v mode %q, want ACTIVE in lite", info.State, info.ModeName)
			}
		}
	}
	if res.Downgrades == 0 || res.Upgrades == 0 {
		t.Errorf("downgrades=%d upgrades=%d, want both nonzero", res.Downgrades, res.Upgrades)
	}
	if res.Restarts != 1 || res.Escalations != 0 {
		t.Errorf("restarts=%d escalations=%d, want 1/0", res.Restarts, res.Escalations)
	}
	if res.SpanCount != degradeSpanCount || res.SpanDigest != degradeSpanGolden {
		t.Errorf("span stream = %d spans, digest %s; want %d, %s",
			res.SpanCount, res.SpanDigest, degradeSpanCount, degradeSpanGolden)
	}
}

// TestDegradeBinaryAblation pins the baseline the mode ladder is measured
// against: without declared fallbacks the same faults force denial and
// revocation, and availability collapses for every component, strictly
// below the graceful run's.
func TestDegradeBinaryAblation(t *testing.T) {
	res, err := RunDegradeCampaign(DegradeConfig{Binary: true})
	if err != nil {
		t.Fatal(err)
	}
	grace, err := RunDegradeCampaign(DegradeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"calc", "zaux"} {
		if b, g := res.Availability[name], grace.Availability[name]; b >= g {
			t.Errorf("%s availability binary %v, want strictly below graceful %v", name, b, g)
		}
	}
	if res.Denies == 0 || res.Revokes == 0 {
		t.Errorf("denies=%d revokes=%d, want both nonzero in binary mode", res.Denies, res.Revokes)
	}
	if res.Downgrades != 0 || res.Upgrades != 0 {
		t.Errorf("downgrades=%d upgrades=%d, want 0/0 without modes", res.Downgrades, res.Upgrades)
	}
	if res.TimeToRepromo >= 0 {
		t.Errorf("time-to-repromotion = %v, want never (-1)", res.TimeToRepromo)
	}
	for _, name := range []string{"calc", "disp"} {
		if a := res.Availability[name]; a >= 0.6 {
			t.Errorf("%s binary availability = %v, want well below the graceful run's 1.0", name, a)
		}
	}
	if res.SpanCount != binarySpanCount || res.SpanDigest != binarySpanGolden {
		t.Errorf("span stream = %d spans, digest %s; want %d, %s",
			res.SpanCount, res.SpanDigest, binarySpanCount, binarySpanGolden)
	}
}

// TestDegradeDeterministic: same config twice, same digest.
func TestDegradeDeterministic(t *testing.T) {
	a, err := RunDegradeCampaign(DegradeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDegradeCampaign(DegradeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.SpanDigest != b.SpanDigest || a.SpanCount != b.SpanCount {
		t.Errorf("non-deterministic campaign: %s/%d vs %s/%d",
			a.SpanDigest, a.SpanCount, b.SpanDigest, b.SpanCount)
	}
}

// Pre-change goldens for the churn storm on single-mode components: the
// mode subsystem must be byte-invisible when no component declares a
// <mode>. Captured on the commit before the mode ladder landed.
const (
	churnObsGolden   = "2847c4ff41b6336dad43e9e42a9091c99f6a0c59ffde69c0ef2361ad6f4a64e5"
	churnTraceGolden = "e9aa70d178a94554ecaf53115d4ea44e5262ca4e9b5a15075669139860c6307d"
	churnStateGolden = "a9941a9b426ff70b4723c3f4936a8f61811e197d9d9dbabc6ff2be099b1bedac"
	churnSpanCount   = 419
)

// TestChurnUnchangedBySingleModeComponents pins the resolve engine
// against the digests captured before multi-mode contracts existed (both
// engines then produced them): a population that declares no degraded
// modes must produce the exact same admission decisions, event trace,
// and span stream as it did then.
func TestChurnUnchangedBySingleModeComponents(t *testing.T) {
	got, err := RunChurn(ChurnSpec{Components: 80, Steps: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.ObsFullDigest != churnObsGolden {
		t.Errorf("obs digest %s, want pre-change %s", got.ObsFullDigest, churnObsGolden)
	}
	if got.TraceDigest != churnTraceGolden {
		t.Errorf("trace digest %s, want pre-change %s", got.TraceDigest, churnTraceGolden)
	}
	if got.StateDigest != churnStateGolden {
		t.Errorf("state digest %s, want pre-change %s", got.StateDigest, churnStateGolden)
	}
	if got.Spans != churnSpanCount {
		t.Errorf("%d spans, want pre-change %d", got.Spans, churnSpanCount)
	}
}

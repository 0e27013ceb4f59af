package workload

import (
	"testing"

	"repro/internal/obs"
)

// The storm must replay bit-identically on both resolve engines: same
// event trace, same final state. This is the workload-level counterpart
// of core's differential test, exercising the bundle-delivery path too.
func TestChurnEnginesAgree(t *testing.T) {
	spec := ChurnSpec{Components: 40, Steps: 120, Seed: 7}
	spec.FullSweep = false
	inc, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("worklist churn: %v", err)
	}
	spec.FullSweep = true
	ref, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("full-sweep churn: %v", err)
	}
	if inc.TraceDigest != ref.TraceDigest {
		t.Errorf("trace digests diverge: worklist %s vs full-sweep %s (events %d vs %d)",
			inc.TraceDigest, ref.TraceDigest, inc.Events, ref.Events)
	}
	if inc.StateDigest != ref.StateDigest {
		t.Errorf("state digests diverge: worklist %s vs full-sweep %s",
			inc.StateDigest, ref.StateDigest)
	}
	if inc.Components != ref.Components || inc.Components == 0 {
		t.Errorf("component counts: worklist %d, full-sweep %d", inc.Components, ref.Components)
	}
	// The observability stream is part of the engine contract too: the
	// engine-comparable digest (IDs, causes, and round internals
	// excluded) must match span for span, so a full-sweep re-consult and
	// a worklist dirty-only consult look identical to observers.
	if inc.ObsDigest != ref.ObsDigest {
		t.Errorf("obs stream digests diverge: worklist %s vs full-sweep %s (spans %d vs %d)",
			inc.ObsDigest, ref.ObsDigest, inc.Spans, ref.Spans)
	}
	if inc.Spans == 0 {
		t.Error("storm emitted no spans")
	}
}

// Same spec twice must give the same digests — the bench relies on the
// storm being a pure function of the seed.
func TestChurnDeterministic(t *testing.T) {
	spec := ChurnSpec{Components: 30, Steps: 80, Seed: 3}
	a, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.TraceDigest != b.TraceDigest || a.StateDigest != b.StateDigest {
		t.Errorf("non-deterministic storm: %+v vs %+v", a, b)
	}
	if a.ObsDigest != b.ObsDigest || a.Spans != b.Spans {
		t.Errorf("non-deterministic obs stream: %s/%d vs %s/%d",
			a.ObsDigest, a.Spans, b.ObsDigest, b.Spans)
	}
}

// The engine-comparable obs digest must also survive a level change: the
// Full level adds resolve-round and sched spans, but none of them enter
// the stream digest.
func TestChurnObsDigestLevelIndependent(t *testing.T) {
	spec := ChurnSpec{Components: 30, Steps: 80, Seed: 3}
	sampled, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	spec.ObsLevel = obs.Full
	full, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if sampled.ObsDigest != full.ObsDigest {
		t.Errorf("stream digest changed with sampling level: %s vs %s",
			sampled.ObsDigest, full.ObsDigest)
	}
	if full.Spans <= sampled.Spans {
		t.Errorf("full level should emit extra spans: %d vs %d", full.Spans, sampled.Spans)
	}

	// The reference storm (200 components, 400 steps, seed 1) is pinned
	// per level: Off emits nothing (the digest of the empty stream), and
	// Sampled and Full share one stream digest.
	for _, tc := range []struct {
		level  obs.Level
		digest string
		spans  uint64
	}{
		{obs.Off, churnObsDigestOff, 0},
		{obs.Sampled, churnObsDigestGolden, 1175},
		{obs.Full, churnObsDigestGolden, 1328},
	} {
		got, err := RunChurn(ChurnSpec{Components: 200, Steps: 400, Seed: 1, ObsLevel: tc.level})
		if err != nil {
			t.Fatalf("%s run: %v", tc.level, err)
		}
		if got.ObsDigest != tc.digest || got.Spans != tc.spans {
			t.Errorf("%s: stream digest %s with %d spans, want %s with %d",
				tc.level, got.ObsDigest, got.Spans, tc.digest, tc.spans)
		}
	}
}

// Stream digests of the reference churn storm; Off is SHA-256 of the
// empty stream. Refresh deliberately, never casually.
const (
	churnObsDigestOff    = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	churnObsDigestGolden = "5c0e06180ad9a27dfe35cf03a3476b471205028329a48589d5d3b8d02aeb8bcb"
)

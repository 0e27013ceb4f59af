package workload

import (
	"testing"

	"repro/internal/obs"
)

// The digests the full-sweep reference engine produced on the storm
// below. That engine is a test oracle in package core, out of reach of
// this package; core's differential tests keep the worklist engine in
// agreement with it.
const (
	sweepTraceGolden = "f97efaf7bbed4e0f95a93d9cba077f570656894be874600381e4e61ea04c4cf8"
	sweepStateGolden = "2e6b71d2199ae7c6fba17bc8fdd5c519aa756465eaccd1f613ca2e1b398cc355"
	sweepObsGolden   = "8ec22e4d6001c4c1d37cb0e4c9c850e31cc94910fc8ce587c0e9f170d0d29b41"
	sweepComponents  = 42
	sweepSpans       = 296
)

// The storm, bundle-delivery path included, must replay bit-identically
// to the full-sweep reference engine's recorded run: same event trace,
// same final state, same engine-comparable span stream (IDs, causes and
// round internals excluded, so a full-sweep re-consult and a worklist
// dirty-only consult look identical to observers).
func TestChurnEnginesAgree(t *testing.T) {
	got, err := RunChurn(ChurnSpec{Components: 40, Steps: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"trace", got.TraceDigest, sweepTraceGolden},
		{"state", got.StateDigest, sweepStateGolden},
		{"obs stream", got.ObsDigest, sweepObsGolden},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %s, full-sweep engine had %s", c.what, c.got, c.want)
		}
	}
	if got.Components != sweepComponents || got.Spans != sweepSpans {
		t.Errorf("%d components, %d spans; full-sweep engine had %d, %d",
			got.Components, got.Spans, sweepComponents, sweepSpans)
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

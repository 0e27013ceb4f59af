package workload

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// At obs.Full, striping the DRCR's lifecycle locks by dependency cone
// used to leave the plane's span stream unchanged, byte for byte. The
// DRCR now has one executive lock; each test pins the full digest (span
// IDs and cause edges included) and the span count
// that every stripe count reproduced, across the churn, fault and
// degradation campaigns.

func TestChurnShardedEmissionMatchesFunnel(t *testing.T) {
	got, err := RunChurn(ChurnSpec{Components: 60, Steps: 120, Seed: 11, NumCPUs: 8, ObsLevel: obs.Full})
	if err != nil {
		t.Fatal(err)
	}
	if got.ObsFullDigest != "374086409ad73cc63e70b50865073a8065fa49fe9eae1d3887447bf9afbd4d9b" {
		t.Errorf("full digest %s drifted", got.ObsFullDigest)
	}
	if got.Spans != 403 {
		t.Errorf("emitted %d spans, pinned 403", got.Spans)
	}
}

func TestFaultCampaignShardedEmissionMatchesFunnel(t *testing.T) {
	got, err := RunFaultCampaign(FaultCampaignConfig{Seed: 3, RunFor: 400 * time.Millisecond, Guarded: true,
		NumCPUs: 8, Replicas: 7, ObsLevel: obs.Full})
	if err != nil {
		t.Fatal(err)
	}
	if got.Obs.Sched.Events == 0 {
		t.Fatal("Full level recorded no sched spans: scheduler bridge not attached")
	}
	if got.SpanDigest != "b5a237ed90f9ace4199f3b0e8149752498bbfa6b5b34128d4a79480023f7d1de" {
		t.Errorf("span digest %s drifted", got.SpanDigest)
	}
	if got.SpanCount != 2565 {
		t.Errorf("emitted %d spans, pinned 2565", got.SpanCount)
	}
}

func TestDegradeShardedEmissionMatchesFunnel(t *testing.T) {
	got, err := RunDegradeCampaign(DegradeConfig{Seed: 9, RunFor: 600 * time.Millisecond, NumCPUs: 8, Replicas: 7,
		ObsLevel: obs.Full})
	if err != nil {
		t.Fatal(err)
	}
	if got.SpanDigest != "6cdc24cef060eca2e4588acf7b0c4e087220e1d53e062fa1c09d2924812d6ffa" {
		t.Errorf("span digest %s drifted", got.SpanDigest)
	}
}

// The 8-node churn-under-partition campaign's stitched cross-node
// trace digest is pinned: byte-identical across runs and Parallel, and the merged latency summary carries real
// distributions (resolve and deploy at minimum) without ever entering
// a digest.
func TestClusterStitchedDigestPinned(t *testing.T) {
	spec := ClusterSpec{Nodes: 8, Seed: 42, NumCPUs: 4, RunFor: 120 * time.Millisecond}
	ref, err := RunClusterCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ref.StitchDigest == "" {
		t.Fatal("campaign produced no stitched digest")
	}
	if len(ref.Latency) == 0 {
		t.Fatal("campaign recorded no latency distributions")
	}
	seen := map[string]obs.LatencyStat{}
	for _, st := range ref.Latency {
		seen[st.Name] = st
		if st.P50NS > st.P95NS || st.P95NS > st.P99NS || st.P99NS > st.MaxNS {
			t.Errorf("latency %s: quantiles out of order: %+v", st.Name, st)
		}
	}
	for _, want := range []string{"resolve", "deploy"} {
		if st, ok := seen[want]; !ok || st.Count == 0 {
			t.Errorf("merged latency summary missing %q samples: %+v", want, ref.Latency)
		}
	}
	again, err := RunClusterCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.StitchDigest != ref.StitchDigest {
		t.Fatalf("same spec, different stitched digests:\n%s\n%s", ref.StitchDigest, again.StitchDigest)
	}
	par := spec
	par.Parallel = true
	got, err := RunClusterCampaign(par)
	if err != nil {
		t.Fatal(err)
	}
	if got.StitchDigest != ref.StitchDigest {
		t.Fatalf("Parallel changed the stitched digest:\n%s\n%s", ref.StitchDigest, got.StitchDigest)
	}

	// The default-seed two-CPU spec's stitched digest is a golden.
	golden, err := RunClusterCampaign(ClusterSpec{Nodes: 8, Seed: 1, NumCPUs: 2, RunFor: 120 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if golden.StitchDigest != clusterStitchGolden {
		t.Errorf("seed-1 stitched digest %s, want %s", golden.StitchDigest, clusterStitchGolden)
	}
}

// clusterStitchGolden pins the stitched cross-node trace digest of the
// 8-node campaign at seed 1, two CPUs per node, 120ms. Refresh
// deliberately, never casually.
const clusterStitchGolden = "eb3392ab18f5a0687cacff0be454425902a12cb12c0d0decd08494c6a41ca6fb"

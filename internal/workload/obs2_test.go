package workload

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// At obs.Full, striping the DRCR's lifecycle locks by dependency cone
// must leave the plane's span stream unchanged, byte for byte: the full
// digest (span IDs and cause edges included) AND the stream digest, at
// stripe counts 1/2/4/8 against the unstriped run, across the churn,
// fault and degradation campaigns.

func TestChurnShardedEmissionMatchesFunnel(t *testing.T) {
	base := ChurnSpec{Components: 60, Steps: 120, Seed: 11, NumCPUs: 8, ObsLevel: obs.Full}
	ref, err := RunChurn(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		sharded := base
		sharded.Shards = shards
		got, err := RunChurn(sharded)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.ObsFullDigest != ref.ObsFullDigest {
			t.Errorf("shards=%d: full digest %s != sequential %s",
				shards, got.ObsFullDigest, ref.ObsFullDigest)
		}
		if got.ObsDigest != ref.ObsDigest {
			t.Errorf("shards=%d: stream digest %s != sequential %s",
				shards, got.ObsDigest, ref.ObsDigest)
		}
		if got.Spans != ref.Spans {
			t.Errorf("shards=%d: emitted %d spans, sequential %d", shards, got.Spans, ref.Spans)
		}
	}
}

func TestFaultCampaignShardedEmissionMatchesFunnel(t *testing.T) {
	base := FaultCampaignConfig{Seed: 3, RunFor: 400 * time.Millisecond, Guarded: true,
		NumCPUs: 8, Replicas: 7, ObsLevel: obs.Full}
	ref, err := RunFaultCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Obs.Sched.Events == 0 {
		t.Fatal("Full level recorded no sched spans: scheduler bridge not attached")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		sharded := base
		sharded.Shards = shards
		got, err := RunFaultCampaign(sharded)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.SpanDigest != ref.SpanDigest {
			t.Errorf("shards=%d: span digest %s != sequential %s", shards, got.SpanDigest, ref.SpanDigest)
		}
		if got.StreamDigest != ref.StreamDigest {
			t.Errorf("shards=%d: stream digest %s != sequential %s", shards, got.StreamDigest, ref.StreamDigest)
		}
		if got.SpanCount != ref.SpanCount {
			t.Errorf("shards=%d: emitted %d spans, sequential %d", shards, got.SpanCount, ref.SpanCount)
		}
	}
}

func TestDegradeShardedEmissionMatchesFunnel(t *testing.T) {
	base := DegradeConfig{Seed: 9, RunFor: 600 * time.Millisecond, NumCPUs: 8, Replicas: 7,
		ObsLevel: obs.Full}
	ref, err := RunDegradeCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		sharded := base
		sharded.Shards = shards
		got, err := RunDegradeCampaign(sharded)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.SpanDigest != ref.SpanDigest {
			t.Errorf("shards=%d: span digest %s != sequential %s", shards, got.SpanDigest, ref.SpanDigest)
		}
		if got.StreamDigest != ref.StreamDigest {
			t.Errorf("shards=%d: stream digest %s != sequential %s", shards, got.StreamDigest, ref.StreamDigest)
		}
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

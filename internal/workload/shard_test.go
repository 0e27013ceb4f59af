package workload

import (
	"testing"
	"time"
)

// Campaign digests — seed-tree scheduler digests and obs span digests
// alike — must be byte-identical between the unstriped DRCR and one
// whose lifecycle locks are striped by dependency cone
// (core.Options.Shards) at stripe counts 1/2/4/8, across the churn,
// latency, fault, and degradation campaigns.

func TestChurnShardInvariance(t *testing.T) {
	base := ChurnSpec{Components: 80, Steps: 160, Seed: 5, NumCPUs: 8}
	ref, err := RunChurn(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		spec := base
		spec.Shards = shards
		got, err := RunChurn(spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.TraceDigest != ref.TraceDigest {
			t.Errorf("shards=%d: trace digest %s != sequential %s", shards, got.TraceDigest, ref.TraceDigest)
		}
		if got.StateDigest != ref.StateDigest {
			t.Errorf("shards=%d: state digest %s != sequential %s", shards, got.StateDigest, ref.StateDigest)
		}
		if got.ObsDigest != ref.ObsDigest {
			t.Errorf("shards=%d: obs digest %s != sequential %s", shards, got.ObsDigest, ref.ObsDigest)
		}
	}
}

func TestLatencyShardInvariance(t *testing.T) {
	base := LatencyConfig{Hybrid: true, Samples: 3000, Seed: 7, NumCPUs: 4}
	ref, err := RunLatency(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		got, err := RunLatency(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.Row != ref.Row {
			t.Errorf("shards=%d: latency row %+v != sequential %+v", shards, got.Row, ref.Row)
		}
		if len(got.Samples) != len(ref.Samples) {
			t.Fatalf("shards=%d: %d samples, sequential had %d", shards, len(got.Samples), len(ref.Samples))
		}
		for i := range got.Samples {
			if got.Samples[i] != ref.Samples[i] {
				t.Fatalf("shards=%d: sample %d is %d, sequential %d", shards, i, got.Samples[i], ref.Samples[i])
			}
		}
	}
}

func TestFaultCampaignShardInvariance(t *testing.T) {
	base := FaultCampaignConfig{Seed: 3, RunFor: 600 * time.Millisecond, Guarded: true,
		NumCPUs: 8, Replicas: 7}
	ref, err := RunFaultCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.SpanDigest == "" || len(ref.Events) == 0 {
		t.Fatal("reference run produced no observable activity")
	}
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Shards = shards
		got, err := RunFaultCampaign(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.SpanDigest != ref.SpanDigest {
			t.Errorf("shards=%d: span digest %s != sequential %s", shards, got.SpanDigest, ref.SpanDigest)
		}
		if got.TraceDigest != ref.TraceDigest {
			t.Errorf("shards=%d: guard trace digest %s != sequential %s", shards, got.TraceDigest, ref.TraceDigest)
		}
		if len(got.Events) != len(ref.Events) {
			t.Errorf("shards=%d: %d lifecycle events, sequential had %d", shards, len(got.Events), len(ref.Events))
		}
		if got.DispMaxAbs != ref.DispMaxAbs {
			t.Errorf("shards=%d: disp max |latency| %d != sequential %d", shards, got.DispMaxAbs, ref.DispMaxAbs)
		}
	}
}

func TestDegradeShardInvariance(t *testing.T) {
	base := DegradeConfig{Seed: 9, RunFor: 1200 * time.Millisecond, NumCPUs: 8, Replicas: 7}
	ref, err := RunDegradeCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.SpanDigest == "" || ref.Downgrades == 0 {
		t.Fatalf("reference run not exercising the mode ladder (downgrades=%d)", ref.Downgrades)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		cfg := base
		cfg.Shards = shards
		got, err := RunDegradeCampaign(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got.SpanDigest != ref.SpanDigest {
			t.Errorf("shards=%d: span digest %s != sequential %s", shards, got.SpanDigest, ref.SpanDigest)
		}
		if got.MeanUtil != ref.MeanUtil {
			t.Errorf("shards=%d: mean util %v != sequential %v", shards, got.MeanUtil, ref.MeanUtil)
		}
		if got.Downgrades != ref.Downgrades || got.Restarts != ref.Restarts {
			t.Errorf("shards=%d: downgrades/restarts %d/%d != sequential %d/%d",
				shards, got.Downgrades, got.Restarts, ref.Downgrades, ref.Restarts)
		}
	}
}

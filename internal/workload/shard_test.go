package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"time"

	"repro/internal/metrics"
)

// Campaign digests — seed-tree scheduler digests and obs span digests
// alike — used to be compared between the unstriped DRCR and one whose
// lifecycle locks were striped by dependency cone. The DRCR now has one
// executive lock, so each test pins the values every stripe count
// reproduced, across the churn, latency, fault, degradation and
// predictive campaigns.

func TestChurnShardInvariance(t *testing.T) {
	got, err := RunChurn(ChurnSpec{Components: 80, Steps: 160, Seed: 5, NumCPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"trace digest", got.TraceDigest, "4b0434738a76e6e51e6a603d5dbff0806adf04bb0749cf7e3aae79d2cf2ccdcd"},
		{"state digest", got.StateDigest, "7c92bf4bfdc4645e88ef9de2c1138a526aa46f51339dc201069cd9f11d95fc1f"},
		{"obs digest", got.ObsFullDigest, "c7cb27a888fc17e932f9c7f687b6d88bd27c03b72ed2e560ca287eda79ca2258"},
	} {
		if c.got != c.want {
			t.Errorf("%s %s, pinned %s", c.what, c.got, c.want)
		}
	}
}

// samplesDigest folds a latency sample series into one SHA-256.
func samplesDigest(samples []int64) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range samples {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestLatencyShardInvariance(t *testing.T) {
	got, err := RunLatency(LatencyConfig{Hybrid: true, Samples: 3000, Seed: 7, NumCPUs: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantRow := metrics.Row{Label: "HRC (light)", Average: -683.4391869376874, AveDev: 3188.8111418153253,
		Min: -26034, Max: 23884, N: 3001}
	if got.Row != wantRow {
		t.Errorf("latency row %+v, pinned %+v", got.Row, wantRow)
	}
	if len(got.Samples) != 3001 {
		t.Fatalf("%d samples, pinned 3001", len(got.Samples))
	}
	if d := samplesDigest(got.Samples); d != "5c022120196d4930480214652641170659a427d11a37bf9b761167c43a47173a" {
		t.Errorf("sample digest %s drifted from the pinned series", d)
	}
}

func TestFaultCampaignShardInvariance(t *testing.T) {
	got, err := RunFaultCampaign(FaultCampaignConfig{Seed: 3, RunFor: 600 * time.Millisecond, Guarded: true,
		NumCPUs: 8, Replicas: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.SpanDigest != "423eb843b0d95827cae07b9a6047892244ff50b75152fa2d329d2106d7849fd2" {
		t.Errorf("span digest %s drifted", got.SpanDigest)
	}
	if got.TraceDigest != "a5c7c21bde99788341033c0ec0f6ecdff1e95c5be8133228c666f1ce7d608b41" {
		t.Errorf("guard trace digest %s drifted", got.TraceDigest)
	}
	if len(got.Events) != 160 {
		t.Errorf("%d lifecycle events, pinned 160", len(got.Events))
	}
	if got.DispMaxAbs != 29574 {
		t.Errorf("disp max |latency| %d, pinned 29574", got.DispMaxAbs)
	}
}

func TestDegradeShardInvariance(t *testing.T) {
	got, err := RunDegradeCampaign(DegradeConfig{Seed: 9, RunFor: 1200 * time.Millisecond, NumCPUs: 8, Replicas: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.SpanDigest != "21c873f3d6760e3560fe50db9ab05946c2999342d2c80281647f83753e216501" {
		t.Errorf("span digest %s drifted", got.SpanDigest)
	}
	if got.MeanUtil != 0.17816666666666683 {
		t.Errorf("mean util %v, pinned 0.17816666666666683", got.MeanUtil)
	}
	if got.Downgrades != 5 || got.Restarts != 1 {
		t.Errorf("downgrades/restarts %d/%d, pinned 5/1", got.Downgrades, got.Restarts)
	}
}

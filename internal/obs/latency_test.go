package obs

import (
	"testing"
)

func TestRecordLatencyAndStats(t *testing.T) {
	p := NewPlane(Options{Node: "n0"})
	if got := p.LatencyStats(); len(got) != 0 {
		t.Fatalf("fresh plane has latency stats: %+v", got)
	}
	for i := 0; i < 100; i++ {
		p.RecordLatency(LatResolve, 1000)
	}
	p.RecordLatency(LatResolve, 1_000_000)
	p.RecordLatency(LatMigrate, 5000)
	p.RecordLatency(LatMigrate, -3)      // clamped, not dropped
	p.RecordLatency(LatencyKind(250), 1) // out of range: ignored
	stats := p.LatencyStats()
	if len(stats) != 2 {
		t.Fatalf("want 2 populated kinds, got %+v", stats)
	}
	// Canonical enum order: resolve before migrate-e2e.
	if stats[0].Name != "resolve" || stats[1].Name != "migrate-e2e" {
		t.Fatalf("stats out of canonical order: %+v", stats)
	}
	r := stats[0]
	if r.Count != 101 || r.MaxNS != 1_000_000 {
		t.Fatalf("resolve stat: %+v", r)
	}
	if r.P50NS < 1000 || r.P50NS > 1024 {
		t.Fatalf("resolve p50 %d outside [1000,1024]", r.P50NS)
	}
	if r.P99NS > 1_000_000 || r.P99NS < r.P50NS {
		t.Fatalf("resolve p99 %d out of range", r.P99NS)
	}
	m := stats[1]
	if m.Count != 2 || m.MaxNS != 5000 {
		t.Fatalf("migrate stat: %+v", m)
	}
}

func TestRecordLatencyDisabledPlane(t *testing.T) {
	p := NewPlane(Options{Level: Off})
	p.RecordLatency(LatDeploy, 42)
	if got := p.LatencyStats(); len(got) != 0 {
		t.Fatalf("Off plane recorded latency: %+v", got)
	}
	var nilPlane *Plane
	nilPlane.RecordLatency(LatDeploy, 42) // must not panic
	if got := nilPlane.LatencyStats(); got != nil {
		t.Fatalf("nil plane returned stats: %+v", got)
	}
}

func TestMergeLatencyStats(t *testing.T) {
	a := NewPlane(Options{})
	b := NewPlane(Options{})
	a.RecordLatency(LatDeploy, 100)
	a.RecordLatency(LatDeploy, 200)
	b.RecordLatency(LatDeploy, 400)
	b.RecordLatency(LatRevoke, 900)
	merged := MergeLatencyStats(a, b, nil)
	if len(merged) != 2 {
		t.Fatalf("merged stats: %+v", merged)
	}
	if merged[0].Name != "deploy" || merged[0].Count != 3 {
		t.Fatalf("deploy merge: %+v", merged[0])
	}
	if merged[1].Name != "revoke-propagation" || merged[1].Count != 1 {
		t.Fatalf("revoke merge: %+v", merged[1])
	}
	if merged[0].MaxNS != 400 {
		t.Fatalf("deploy merged max %d, want 400", merged[0].MaxNS)
	}
}

// The histogram record path must be allocation-free: it sits on the
// resolve/deploy hot paths at the default Sampled level.
func TestRecordLatencyAllocFree(t *testing.T) {
	p := NewPlane(Options{})
	v := int64(1)
	avg := testing.AllocsPerRun(1000, func() {
		p.RecordLatency(LatResolve, v)
		p.RecordLatency(LatDeploy, v*7)
		v++
	})
	if avg > 0.001 {
		t.Fatalf("RecordLatency allocates: %v allocs/op", avg)
	}
}

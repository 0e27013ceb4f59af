package obs

import (
	"testing"
	"time"

	"repro/internal/rtos"
)

// runShardedTickers drives a kernel with one periodic task per CPU and
// returns the bound plane.
func runShardedTickers(t *testing.T, level Level, shards int, runFor time.Duration) *Plane {
	t.Helper()
	k := rtos.NewKernel(rtos.Config{Seed: 1, NumCPUs: 4, Shards: shards})
	p := NewPlane(Options{Level: level})
	p.BindKernel(k)
	for cpu := 0; cpu < 4; cpu++ {
		task, err := k.CreateTask(rtos.TaskSpec{
			Name: "tk" + string(rune('a'+cpu)), Type: rtos.Periodic,
			Period:   time.Duration(1+cpu) * time.Millisecond,
			ExecTime: 30 * time.Microsecond, CPU: cpu,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(runFor); err != nil {
		t.Fatal(err)
	}
	return p
}

// A sharded kernel stages each shard's scheduler events and merges them
// at the window barrier in canonical order before they reach the plane:
// the digests must be byte-identical to the sequential kernel's — the
// full one (span IDs included; staging must not perturb ID assignment)
// and the stream one — at shard counts 1, 2 and 4.
func TestShardedEmissionDigestsMatchSequential(t *testing.T) {
	ref := runShardedTickers(t, Full, 0, 100*time.Millisecond)
	refDigest, refStream := ref.Digest(), ref.StreamDigest()
	if ref.Snapshot().Sched.Events == 0 {
		t.Fatal("reference run emitted no sched spans")
	}
	for _, shards := range []int{1, 2, 4} {
		p := runShardedTickers(t, Full, shards, 100*time.Millisecond)
		if d := p.Digest(); d != refDigest {
			t.Errorf("shards=%d: digest %s != sequential %s", shards, d, refDigest)
		}
		if s := p.StreamDigest(); s != refStream {
			t.Errorf("shards=%d: stream digest %s != sequential %s", shards, s, refStream)
		}
	}

	// The scheduler bridge is gated to Full: below it a sharded kernel's
	// plane carries no sched spans at all.
	for _, level := range []Level{Off, Sampled, Full} {
		p := runShardedTickers(t, level, 2, 100*time.Millisecond)
		spans := 0
		for _, s := range p.Spans() {
			if s.Kind == KindSched {
				spans++
			}
		}
		bridged := p.Snapshot().Sched.Events
		if level == Full && (spans == 0 || bridged == 0) {
			t.Errorf("Full: sharded kernel bridged no sched spans (%d retained, %d counted)", spans, bridged)
		}
		if level != Full && (spans != 0 || bridged != 0) {
			t.Errorf("%s: sched bridge leaked below Full (%d retained, %d counted)", level, spans, bridged)
		}
	}
}

// The kernel's per-shard staging buffers, the barrier merge and the
// plane's scheduler bridge must be allocation-free in steady state.
func TestShardedEmissionAllocFree(t *testing.T) {
	k := rtos.NewKernel(rtos.Config{Seed: 1, NumCPUs: 4, Shards: 4})
	p := NewPlane(Options{Level: Full})
	p.BindKernel(k)
	for cpu := 0; cpu < 4; cpu++ {
		task, err := k.CreateTask(rtos.TaskSpec{
			Name: "tk" + string(rune('a'+cpu)), Type: rtos.Periodic,
			Period: time.Millisecond, ExecTime: 30 * time.Microsecond, CPU: cpu,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: grow the staging buffers and the merge scratch to their
	// steady-state capacity.
	if err := k.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := p.Snapshot().Sched.Events
	if n := testing.AllocsPerRun(50, func() {
		if err := k.Run(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}); n > 0.001 {
		t.Errorf("sharded emission allocates %.3f per ms of sim time", n)
	}
	if after := p.Snapshot().Sched.Events; after <= before {
		t.Fatal("sharded kernel bridged no sched spans during the measured runs")
	}
}

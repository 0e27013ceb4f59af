package obs

import (
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/sim"
)

// The emit path — ring store, counter bumps, digest fold — must be
// allocation-free once the per-component counter cells exist, or the
// plane would tax the resolve and guard hot paths it instruments.
func TestEmitAllocFree(t *testing.T) {
	p := NewPlane(Options{})
	// Warm up: create the per-component cells and last-span entries.
	p.Deploy(0, "calc", "UNSATISFIED", "warm")
	p.Transition(0, "calc", "UNSATISFIED", "SATISFIED", "warm", 0)
	p.Deny(0, "calc", "warm", 0)
	p.Violation(0, "calc", "BudgetOverrun", "warm", 0)
	p.Revoke(0, "calc", "warm")
	p.Restore(0, "calc", "warm")
	p.Quarantine(0, "calc", 4, 0)
	p.FaultInject(0, "exec-inflate", "calc", "warm")
	p.FaultClear(0, "exec-inflate", "calc", "warm", 0)
	// Fill the depth series so ResolveRound stops appending samples.
	for p.depth.Len() < depthSampleCap {
		p.ResolveRound(0, 1, 0)
	}

	now := sim.Time(time.Millisecond)
	cases := map[string]func(){
		"transition": func() { p.Transition(now, "calc", "SATISFIED", "ACTIVE", "admitted", 1) },
		"deny":       func() { p.Deny(now, "calc", "admission denied: cpu full", 0) },
		"revoke":     func() { p.Revoke(now, "calc", "violation") },
		"violation":  func() { p.Violation(now, "calc", "BudgetOverrun", "3x", 2) },
		"quarantine": func() { p.Quarantine(now, "calc", 4, 2) },
		"fault":      func() { p.FaultInject(now, "exec-inflate", "calc", "x4") },
		"round":      func() { p.ResolveRound(now, 2, 1) },
		"drain":      func() { p.NoteDrain() },
		"cause": func() {
			p.PushCause(3)
			p.Transition(now, "calc", "ACTIVE", "UNSATISFIED", "cascade", 0)
			p.PopCause()
		},
	}
	for name, f := range cases {
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %.1f per emit", name, n)
		}
	}
}

// The scheduler bridge (Full level) rides the sim hot path: after the
// kernel has warmed up, ticking with the sink attached must not
// allocate.
func TestSchedBridgeAllocFree(t *testing.T) {
	k := rtos.NewKernel(rtos.Config{Seed: 1})
	p := NewPlane(Options{Level: Full})
	p.BindKernel(k)
	task, err := k.CreateTask(rtos.TaskSpec{
		Name: "tick", Type: rtos.Periodic, Period: time.Millisecond,
		ExecTime: 30 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := k.Run(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("sim tick with Full-level sched bridge allocates %.1f per ms", n)
	}
	if p.Snapshot().Sched.Events == 0 {
		t.Fatal("bridge emitted no sched spans")
	}
}

// Reading digests must not disturb the running hashes (Sum must copy).
func TestDigestReadIsPure(t *testing.T) {
	p := NewPlane(Options{})
	p.Deploy(0, "calc", "UNSATISFIED", "")
	d1 := p.Digest()
	if p.Digest() != d1 {
		t.Fatal("reading a digest changed it")
	}
	p.Deny(0, "calc", "x", 0)
	if p.Digest() == d1 {
		t.Fatal("digest frozen after read")
	}
}

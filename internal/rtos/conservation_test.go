package rtos

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// schedulerConserves is the kernel's bookkeeping property: for any task
// set and scheduling policy,
//
//  1. per-CPU busy time never exceeds elapsed time;
//  2. busy time equals the execution charged to tasks (ConsumedCPU),
//     exactly: the two are accounted at the same slice boundaries;
//  3. every task was charged at least its completed jobs' execution —
//     the rest is partial work of jobs still in flight, of which quantum
//     round-robin among equal priorities can leave several;
//  4. response time of every job is at least its execution time.
func schedulerConserves(t *testing.T, seeds [4]uint8, edf bool, quantumOn bool) bool {
	pol := FixedPriority
	if edf {
		pol = EarliestDeadlineFirst
	}
	quantum := time.Duration(-1)
	if quantumOn {
		quantum = 50 * time.Microsecond
	}
	k := NewKernel(Config{Timing: &noNoise, Seed: 1, Policy: pol, Quantum: quantum})
	var tasks []*Task
	for i, s := range seeds {
		exec := time.Duration(int(s%40)+1) * 10 * time.Microsecond // 10µs..400µs
		period := time.Duration(int(s%5)+1) * time.Millisecond
		task, err := k.CreateTask(TaskSpec{
			Name:     fmt.Sprintf("t%d", i),
			Type:     Periodic,
			Period:   period,
			Priority: int(s % 3), // collisions on purpose
			ExecTime: exec,
		})
		if err != nil {
			return false
		}
		if err := task.Start(); err != nil {
			return false
		}
		tasks = append(tasks, task)
	}
	const window = 100 * time.Millisecond
	if err := k.Run(window); err != nil {
		return false
	}
	busy, err := k.BusyTime(0)
	if err != nil {
		return false
	}
	if busy > window {
		t.Logf("busy %v > window %v", busy, window)
		return false
	}
	var consumed time.Duration
	for _, task := range tasks {
		st := task.Stats()
		// Completed jobs × exec is exact: jitter is disabled.
		if done := time.Duration(st.Jobs) * task.Spec().ExecTime; task.consumed < done {
			t.Logf("%s consumed %v < completed work %v", task.Name(), task.consumed, done)
			return false
		}
		consumed += task.consumed
		if st.Jobs > 0 && st.Response.Min < int64(task.Spec().ExecTime) {
			t.Logf("%s response %d < exec %v", task.Name(), st.Response.Min, task.Spec().ExecTime)
			return false
		}
	}
	if busy != consumed {
		t.Logf("conservation broken: busy %v consumed %v", busy, consumed)
		return false
	}
	return true
}

func TestSchedulerConservation(t *testing.T) {
	prop := func(seeds [4]uint8, edf bool, quantumOn bool) bool {
		return schedulerConserves(t, seeds, edf, quantumOn)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Inputs on which several round-robin jobs are partly executed at the
// window's end (busy exceeds completed work by more than one job).
func TestSchedulerConservationRoundRobinInFlight(t *testing.T) {
	for _, seeds := range [][4]uint8{
		{0x14, 0xe6, 0x98, 0xe8},
		{0xe8, 0x73, 0x30, 0x73},
	} {
		if !schedulerConserves(t, seeds, false, true) {
			t.Errorf("%#v: conservation property failed", seeds)
		}
	}
}

// TestNoLostJobsProperty: over a clean window, jobs completed + skips
// equals releases that occurred (no job vanishes in the scheduler).
func TestNoLostJobsProperty(t *testing.T) {
	prop := func(execRaw, periodRaw uint8, edf bool) bool {
		pol := FixedPriority
		if edf {
			pol = EarliestDeadlineFirst
		}
		k := NewKernel(Config{Timing: &noNoise, Seed: 3, Policy: pol})
		period := time.Duration(int(periodRaw%9)+1) * time.Millisecond
		exec := period * time.Duration(int(execRaw%10)+1) / 12 // up to ~92%
		task, err := k.CreateTask(TaskSpec{
			Name: "only", Type: Periodic, Period: period, ExecTime: exec,
		})
		if err != nil {
			return false
		}
		if err := task.Start(); err != nil {
			return false
		}
		// Run an exact number of periods plus the final job's drain time.
		const releases = 50
		if err := k.Run(time.Duration(releases-1)*period + exec + time.Microsecond); err != nil {
			return false
		}
		st := task.Stats()
		return st.Jobs+st.Skips == releases
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

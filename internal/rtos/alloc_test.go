package rtos

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// TestDispatchCycleAllocFree proves a full periodic dispatch cycle —
// release, dispatch, completion, next-release arming — allocates nothing
// once the event and job pools are warm and the stats buffers are
// reserved. This pins the steady-state allocation-free property the
// throughput benchmarks measure.
func TestDispatchCycleAllocFree(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	task, err := k.CreateTask(TaskSpec{
		Name: "tick", Type: Periodic, Period: time.Millisecond,
		ExecTime: 30 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	// Warm-up: fills the Event and job free lists and the heap's backing
	// array; then reserve room for the measured jobs' samples.
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	reserveStats(task, 2000)

	allocs := testing.AllocsPerRun(500, func() {
		if err := k.Run(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("periodic dispatch cycle allocated %.2f objects per period, want 0", allocs)
	}
}

// TestDispatchWithBodyAllocFree extends the dispatch pin to a task with
// a body: the JobContext a body sees is reused job after job, so
// running a body allocates nothing either.
func TestDispatchWithBodyAllocFree(t *testing.T) {
	k := NewKernel(Config{Seed: 1})
	var last JobContext
	task, err := k.CreateTask(TaskSpec{
		Name: "tick", Type: Periodic, Period: time.Millisecond,
		ExecTime: 30 * time.Microsecond,
		Body:     func(j *JobContext) { last = *j },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	reserveStats(task, 2000)

	allocs := testing.AllocsPerRun(500, func() {
		if err := k.Run(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("dispatch cycle with a body allocated %.2f objects per period, want 0", allocs)
	}
	if last.Task != task || last.Index == 0 || last.Now < last.Nominal {
		t.Fatalf("body saw %+v", last)
	}
}

// TestNestedBodyKeepsItsContext pins the reuse rule's exception: a body
// whose trigger preempts it on its own CPU runs the urgent task's body
// inside its own, and must still read its own job's context afterwards.
func TestNestedBodyKeepsItsContext(t *testing.T) {
	k := NewKernel(Config{Seed: 1, Quantum: -1})
	var inner, outerAfter JobContext
	urgent, err := k.CreateTask(TaskSpec{
		Name: "urgent", Type: Aperiodic, Priority: 0,
		ExecTime: 10 * time.Microsecond,
		Body:     func(j *JobContext) { inner = *j },
	})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := k.CreateTask(TaskSpec{
		Name: "lazy", Type: Periodic, Priority: 5, Period: time.Millisecond,
		Phase: 100 * time.Microsecond, ExecTime: 50 * time.Microsecond,
		Body: func(j *JobContext) {
			k.TriggerAsync("urgent")
			outerAfter = *j
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []*Task{urgent, lazy} {
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if inner.Task != urgent {
		t.Fatalf("urgent body never ran nested (saw task %v)", inner.Task)
	}
	if outerAfter.Task != lazy || outerAfter.Nominal != sim.Time(1100*time.Microsecond) {
		t.Fatalf("lazy body read %+v after the nested body, want its own job (task lazy, nominal 1.1ms)", outerAfter)
	}
}

// reserveStats presizes a task's latency and response sample buffers for
// n further jobs (and discards the samples so far), so a warmed-up
// dispatch cycle records its statistics without allocating.
func reserveStats(t *Task, n int) {
	for i := 0; i < n; i++ {
		t.latency.Add(0)
		t.response.Add(0)
	}
	t.ResetStats()
}

package rtos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTraceRecordsSchedulerEvents(t *testing.T) {
	k := exactKernel(1)
	tr := k.StartTrace(0)
	hi, _ := k.CreateTask(TaskSpec{
		Name: "hi", Type: Periodic, Period: 10 * time.Millisecond,
		Phase: time.Millisecond, Priority: 1, ExecTime: 500 * time.Microsecond,
	})
	lo, _ := k.CreateTask(TaskSpec{
		Name: "lo", Type: Periodic, Period: 10 * time.Millisecond,
		Priority: 2, ExecTime: 2 * time.Millisecond,
	})
	if err := hi.Start(); err != nil {
		t.Fatal(err)
	}
	if err := lo.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	kinds := map[TraceEventKind]int{}
	for _, ev := range tr.events {
		kinds[ev.Kind]++
	}
	// lo starts at 0, hi arrives at 1ms and preempts it.
	if kinds[TraceRelease] < 2 || kinds[TraceDispatch] < 3 || kinds[TracePreempt] < 1 || kinds[TraceComplete] < 2 {
		t.Fatalf("kinds = %v", kinds)
	}
	// Events are time-ordered.
	evs := tr.events
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("trace out of order at %d", i)
		}
	}
}

func TestTraceSkipRecorded(t *testing.T) {
	k := exactKernel(1)
	tr := k.StartTrace(0)
	hog, _ := k.CreateTask(TaskSpec{Name: "hog", Type: Periodic, Period: time.Millisecond, Priority: 0, ExecTime: 900 * time.Microsecond})
	starve, _ := k.CreateTask(TaskSpec{Name: "starve", Type: Periodic, Period: time.Millisecond, Priority: 1, ExecTime: 500 * time.Microsecond})
	if err := hog.Start(); err != nil {
		t.Fatal(err)
	}
	if err := starve.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var skips int
	for _, ev := range tr.events {
		if ev.Kind == TraceSkip && ev.Task == "starve" {
			skips++
		}
	}
	if skips == 0 {
		t.Fatal("no skip events in overload trace")
	}
}

func TestTraceLimitAndStop(t *testing.T) {
	k := exactKernel(1)
	tr := k.StartTrace(5)
	task, _ := k.CreateTask(TaskSpec{Name: "x", Type: Periodic, Period: time.Millisecond, ExecTime: time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.events); got != 5 {
		t.Fatalf("limited trace = %d events", got)
	}
	k.StopTrace()
	before := len(tr.events)
	if err := k.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(tr.events) != before {
		t.Fatal("stopped trace kept recording")
	}
}

func TestGanttRender(t *testing.T) {
	k := exactKernel(1)
	tr := k.StartTrace(0)
	a, _ := k.CreateTask(TaskSpec{Name: "taskA", Type: Periodic, Period: 4 * time.Millisecond, Priority: 1, ExecTime: time.Millisecond})
	b, _ := k.CreateTask(TaskSpec{Name: "taskB", Type: Periodic, Period: 4 * time.Millisecond, Priority: 2, ExecTime: 2 * time.Millisecond})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(8 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	out := tr.Gantt(0, sim.Time(8*time.Millisecond), 64)
	if !strings.Contains(out, "taskA") || !strings.Contains(out, "taskB") {
		t.Fatalf("gantt missing rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("gantt has no execution marks:\n%s", out)
	}
	// taskB waits while taskA runs: there must be '.' somewhere in B's row.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "taskB") && !strings.Contains(line, ".") {
			t.Fatalf("taskB row shows no waiting:\n%s", out)
		}
	}
	if got := tr.Gantt(10, 10, 20); !strings.Contains(got, "empty window") {
		t.Fatalf("empty window = %q", got)
	}
	// Default column count path.
	if tr.Gantt(0, sim.Time(time.Millisecond), 0) == "" {
		t.Fatal("default columns render empty")
	}
}

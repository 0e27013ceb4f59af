package rtos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestTraceEventKindStringExhaustive walks every defined kind and
// asserts the static name table covers it; a new kind added without a
// name falls through to the numeric fallback and fails here.
func TestTraceEventKindStringExhaustive(t *testing.T) {
	kinds := []TraceEventKind{
		TraceRelease, TraceDispatch, TracePreempt,
		TraceRotate, TraceComplete, TraceSkip,
	}
	if len(kinds) != len(traceEventNames)-1 {
		t.Fatalf("name table has %d entries for %d kinds — keep them in sync",
			len(traceEventNames)-1, len(kinds))
	}
	seen := map[string]TraceEventKind{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "TraceEventKind(") {
			t.Errorf("kind %d missing from name table (got %q)", int(k), s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	if got := TraceEventKind(0).String(); got != "TraceEventKind(0)" {
		t.Errorf("zero kind: got %q", got)
	}
	if got := TraceEventKind(99).String(); got != "TraceEventKind(99)" {
		t.Errorf("out-of-range kind: got %q", got)
	}
}

// TestTraceEventKindStringAllocs pins the hot-path property that
// motivated the static table: stringifying a defined kind allocates
// nothing.
func TestTraceEventKindStringAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		_ = TraceDispatch.String()
		_ = TraceRelease.String()
	})
	if allocs != 0 {
		t.Fatalf("TraceEventKind.String allocates %.1f per run", allocs)
	}
}

// TestTraceSinkForwarding checks the live sink sees the same events the
// buffering tracer records.
func TestTraceSinkForwarding(t *testing.T) {
	k := NewKernel(Config{Seed: 7})
	tr := k.StartTrace(0)
	var sunk []TraceEvent
	k.SetTraceSink(func(at sim.Time, kind TraceEventKind, task string, cpu int) {
		sunk = append(sunk, TraceEvent{At: at, Kind: kind, Task: task, CPU: cpu})
	})
	task, err := k.CreateTask(TaskSpec{
		Name: "t", Type: Periodic, Period: time.Millisecond,
		Priority: 1, ExecTime: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := tr.events
	if len(got) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	if len(sunk) != len(got) {
		t.Fatalf("sink saw %d events, tracer %d", len(sunk), len(got))
	}
	for i := range got {
		if sunk[i] != got[i] {
			t.Fatalf("event %d: sink %+v, tracer %+v", i, sunk[i], got[i])
		}
	}
	k.SetTraceSink(nil) // detaching must not panic future traces
	if err := k.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

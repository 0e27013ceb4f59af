package rtos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// buildShardWorkload populates a kernel with a deliberately tangled
// multi-CPU schedule: per CPU two equal-priority tasks (exercising
// quantum rotation), a higher-priority preemptor, and an aperiodic task
// the control plane triggers on a period that beats against the task
// periods. Execution jitter keeps release instants irregular.
func buildShardWorkload(t testing.TB, k *Kernel) {
	t.Helper()
	mk := func(spec TaskSpec) *Task {
		task, err := k.CreateTask(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		return task
	}
	for c := 0; c < k.NumCPUs(); c++ {
		mk(TaskSpec{Name: fmt.Sprintf("pa%d", c), Type: Periodic, CPU: c, Priority: 5,
			Period: time.Millisecond, ExecTime: 220 * time.Microsecond, ExecJitter: 0.05})
		mk(TaskSpec{Name: fmt.Sprintf("pb%d", c), Type: Periodic, CPU: c, Priority: 5,
			Period: 1300 * time.Microsecond, Phase: 150 * time.Microsecond,
			ExecTime: 340 * time.Microsecond, ExecJitter: 0.08})
		mk(TaskSpec{Name: fmt.Sprintf("hi%d", c), Type: Periodic, CPU: c, Priority: 1,
			Period: 700 * time.Microsecond, ExecTime: 60 * time.Microsecond, ExecJitter: 0.03})
		mk(TaskSpec{Name: fmt.Sprintf("ap%d", c), Type: Aperiodic, CPU: c, Priority: 3,
			ExecTime: 90 * time.Microsecond, ExecJitter: 0.04})
	}
	// Control-plane metronome: every 811µs trigger the next aperiodic
	// task round-robin.
	i := 0
	var fire sim.Handler
	fire = func(now sim.Time) {
		name := fmt.Sprintf("ap%d", i%k.NumCPUs())
		i++
		if task, ok := k.Task(name); ok {
			_ = task.Trigger()
		}
		if _, err := k.Clock().After(811*time.Microsecond, "test:metronome", fire); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Clock().After(811*time.Microsecond, "test:metronome", fire); err != nil {
		t.Fatal(err)
	}
}

// runShardWorkload executes the reference workload with the deprecated
// Shards field set as given and digests the scheduler trace and per-task
// stats.
func runShardWorkload(t testing.TB, shards int) (traceDigest, statsDigest string, fired uint64) {
	t.Helper()
	k := NewKernel(Config{NumCPUs: 8, Shards: shards, Seed: 42})
	th := sha256.New()
	k.SetTraceSink(func(at sim.Time, kind TraceEventKind, task string, cpu int) {
		fmt.Fprintf(th, "%d|%d|%s|%d\n", int64(at), kind, task, cpu)
	})
	buildShardWorkload(t, k)
	if err := k.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sh := sha256.New()
	for _, task := range k.Tasks() {
		jobs, misses, skips := task.Counters()
		fmt.Fprintf(sh, "%s|%d|%d|%d|%d\n", task.Name(), jobs, misses, skips, task.consumed)
		for _, s := range task.LatencySamples() {
			fmt.Fprintf(sh, "%d,", s)
		}
		sh.Write([]byte("\n"))
	}
	return hex.EncodeToString(th.Sum(nil)), hex.EncodeToString(sh.Sum(nil)), k.EventsFired()
}

// TestShardedDifferential pins that Config.Shards is ignored: on a
// tangled 8-CPU schedule the scheduler trace, every task's counters and
// latency samples, and the event count are byte-identical whether the
// deprecated field is unset or asks for 2, 4 or 8 shards, so callers
// that still set it (perfbench's steady-app sets Shards: 2) get exactly
// the default run.
func TestShardedDifferential(t *testing.T) {
	refTrace, refStats, refFired := runShardWorkload(t, 0)
	if refFired == 0 {
		t.Fatal("reference run fired no events")
	}
	for _, shards := range []int{2, 4, 8} {
		traceD, statsD, fired := runShardWorkload(t, shards)
		if traceD != refTrace {
			t.Errorf("Shards=%d: trace digest %s != default %s", shards, traceD, refTrace)
		}
		if statsD != refStats {
			t.Errorf("Shards=%d: task stats digest %s != default %s", shards, statsD, refStats)
		}
		if fired != refFired {
			t.Errorf("Shards=%d: fired %d events, default fired %d", shards, fired, refFired)
		}
	}
}

// TestTriggerAsyncConservation checks the trigger ledger of the one
// engine: a request to an active aperiodic task is released at the
// instant it is made; requests to a missing, periodic, never-started or
// suspended task are dropped; NoteDroppedTrigger counts as both sent and
// dropped; nothing is ever queued, so sent == delivered + dropped holds
// after every request — including requests made from task bodies
// fanning releases across CPUs.
func TestTriggerAsyncConservation(t *testing.T) {
	k := NewKernel(Config{NumCPUs: 4, Seed: 7})
	var (
		wantSent, wantDelivered, wantDropped uint64
		releasedAt                           = map[string]sim.Time{}
	)
	k.SetTraceSink(func(at sim.Time, kind TraceEventKind, task string, _ int) {
		if kind == TraceRelease {
			releasedAt[task] = at
		}
	})
	check := func(where string) {
		t.Helper()
		sent, delivered, dropped, queued := k.TriggerStats()
		if queued != 0 {
			t.Fatalf("%s: queued = %d, want 0", where, queued)
		}
		if sent != delivered+dropped+queued {
			t.Fatalf("%s: conservation violated: sent %d != delivered %d + dropped %d + queued %d",
				where, sent, delivered, dropped, queued)
		}
		if sent != wantSent || delivered != wantDelivered || dropped != wantDropped {
			t.Fatalf("%s: ledger (sent %d, delivered %d, dropped %d), want (%d, %d, %d)",
				where, sent, delivered, dropped, wantSent, wantDelivered, wantDropped)
		}
	}
	mk := func(spec TaskSpec, start bool) *Task {
		task, err := k.CreateTask(spec)
		if err != nil {
			t.Fatal(err)
		}
		if start {
			if err := task.Start(); err != nil {
				t.Fatal(err)
			}
		}
		return task
	}
	for c := 0; c < 4; c++ {
		mk(TaskSpec{Name: fmt.Sprintf("ap%d", c), Type: Aperiodic, CPU: c,
			Priority: 3, ExecTime: 50 * time.Microsecond}, true)
	}
	mk(TaskSpec{Name: "idle", Type: Aperiodic, CPU: 0, Priority: 3, ExecTime: 50 * time.Microsecond}, false)
	susp := mk(TaskSpec{Name: "susp", Type: Aperiodic, CPU: 1, Priority: 3, ExecTime: 50 * time.Microsecond}, true)
	if err := susp.Suspend(); err != nil {
		t.Fatal(err)
	}
	per := mk(TaskSpec{Name: "per", Type: Periodic, CPU: 2, Priority: 9,
		Period: 10 * time.Millisecond, ExecTime: 10 * time.Microsecond}, true)
	check("initial")

	// Immediate delivery and every drop cause, from a control event.
	if _, err := k.Clock().After(3*time.Millisecond, "test:trigger", func(now sim.Time) {
		k.TriggerAsync("ap2")
		wantSent++
		wantDelivered++
		check("deliver ap2")
		if at, ok := releasedAt["ap2"]; !ok || at != now {
			t.Errorf("ap2 released at %v (ok=%v), want the request instant %v", at, ok, now)
		}
		for _, name := range []string{"nosuch", per.Name(), "idle", susp.Name()} {
			k.TriggerAsync(name)
			wantSent++
			wantDropped++
			check("drop " + name)
		}
		k.NoteDroppedTrigger()
		wantSent++
		wantDropped++
		check("NoteDroppedTrigger")
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check("after control event")

	// Task bodies fan releases to the next CPU's aperiodic task, with a
	// deliberate miss every fourth job.
	for c := 0; c < 4; c++ {
		cpu, n := c, 0
		mk(TaskSpec{Name: fmt.Sprintf("pg%d", c), Type: Periodic, CPU: c,
			Priority: 5, Period: time.Millisecond, ExecTime: 100 * time.Microsecond, ExecJitter: 0.05,
			Body: func(j *JobContext) {
				j.Kernel.TriggerAsync(fmt.Sprintf("ap%d", (cpu+1)%4))
				wantSent++
				wantDelivered++
				if n%4 == 0 {
					j.Kernel.TriggerAsync("nosuch")
					wantSent++
					wantDropped++
				}
				n++
				check("task body")
			}}, true)
	}
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check("after run")
	for c := 0; c < 4; c++ {
		task, _ := k.Task(fmt.Sprintf("ap%d", c))
		if jobs, _, _ := task.Counters(); jobs < 50 {
			t.Errorf("ap%d ran %d jobs, want one per triggering job", c, jobs)
		}
	}
}

// TestRunStartsNoGoroutine bounds the kernel's goroutine use: a 16-CPU
// kernel, with the deprecated Shards asking for 16, runs every task body
// and clock event on the goroutine that called Run, so the goroutine
// count observed from inside the run never exceeds the count before it.
func TestRunStartsNoGoroutine(t *testing.T) {
	k := NewKernel(Config{NumCPUs: 16, Shards: 16, Seed: 3})
	peak, jobs := 0, 0
	for c := 0; c < 16; c++ {
		task, err := k.CreateTask(TaskSpec{Name: fmt.Sprintf("gr%d", c), Type: Periodic, CPU: c,
			Priority: 5, Period: time.Millisecond, ExecTime: 200 * time.Microsecond, ExecJitter: 0.05,
			Body: func(*JobContext) {
				jobs++
				peak = max(peak, runtime.NumGoroutine())
			}})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()
	if err := k.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if jobs < 16*50 {
		t.Fatalf("%d jobs ran, want at least %d", jobs, 16*50)
	}
	if peak > base {
		t.Fatalf("goroutines peaked at %d inside Run, %d before it", peak, base)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Run, %d before it", n, base)
	}
}

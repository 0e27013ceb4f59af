package rtos

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Sharded execution: the simulated CPUs are partitioned across shards,
// each with its own event clock, timer queue, job pool and trace buffer,
// so independent per-CPU schedules advance on real OS threads in
// parallel. Correctness rests on two properties of the kernel design:
//
//   - Per-CPU schedules are independent. Every release, quantum and
//     completion event of a task is keyed to its pinned CPU, each task
//     draws timing noise from its own RNG forked at creation, and ready
//     queues are per-CPU — so the event subsequence of one CPU never
//     depends on when another CPU's events fire.
//
//   - All coupling goes through the control plane. Management code
//     (guards, fault injectors, supervisors, samplers, the DRCR) always
//     schedules on Kernel.Clock() — the control clock — and cross-shard
//     releases go through TriggerAsync. Both are realised as
//     conservative barriers: a shard may only advance past a control
//     instant after its events fired, and control events only fire once
//     every shard has caught up to strictly before them.
//
// Together these make the sharded schedule equal, CPU by CPU, to the
// sequential one: merging the per-shard trace buffers in canonical
// (At, CPU) order reproduces the sequential trace byte for byte (after
// the same canonicalisation), at every shard count.
//
// Ties between a shard event and a control event due at the same instant
// resolve control-first: the control event was necessarily scheduled no
// later (management code runs only at barriers), so in a sequential run
// its queue sequence number is almost always lower too. The seeded
// differential campaigns pin this equivalence.

// kshard is one execution shard: a subset of the simulated CPUs plus the
// isolated mutable state their event processing touches.
type kshard struct {
	clk  *sim.Clock
	cpus []*cpu

	// freeJobs is the shard-local job pool; steady-state release →
	// dispatch → complete cycles allocate nothing and never contend.
	freeJobs *job

	// buf collects the window's scheduler trace events (sharded mode
	// only); the barrier merges all shard buffers in canonical order.
	buf []TraceEvent

	// Window plumbing: runFn is bound once at kernel construction so a
	// window launch spawns no closures; winB/winIncl are its inputs and
	// winErr its result, all owned by the coordinator between windows.
	runFn   func()
	winB    sim.Time
	winIncl bool
	winErr  error
}

// allocJob takes a job from the shard's free list.
func (sh *kshard) allocJob() *job {
	if j := sh.freeJobs; j != nil {
		sh.freeJobs = j.nextFree
		j.nextFree = nil
		return j
	}
	return &job{}
}

// recycleJob returns a finished (or withdrawn) job to the shard's free
// list. The caller must guarantee no live reference remains: not
// running, not in a ready queue, and not a task's pending job.
func (sh *kshard) recycleJob(j *job) {
	*j = job{nextFree: sh.freeJobs}
	sh.freeJobs = j
}

// runWindow advances the shard clock to the window horizon winB —
// inclusively when the horizon is the run deadline itself, otherwise
// firing only events strictly before it.
func (sh *kshard) runWindow() {
	if sh.winIncl {
		sh.winErr = sh.clk.RunUntil(sh.winB)
	} else {
		sh.winErr = sh.clk.RunBefore(sh.winB)
	}
}

// runWindows drives the sharded engine to the deadline in conservative
// lookahead windows. Each iteration either fires the next control
// event(s) — with every shard first brought up to that instant — or runs
// all shards in parallel up to the horizon
//
//	B = min(earliest shard event + lookahead, next control event, deadline),
//
// then merges trace buffers and delivers cross-shard triggers at the
// barrier.
func (k *Kernel) runWindows(deadline sim.Time) error {
	if k.winRunning {
		return sim.ErrReentrantRun
	}
	if deadline < k.clock.Now() {
		return fmt.Errorf("rtos: deadline %v before now %v", deadline, k.clock.Now())
	}
	k.winRunning = true
	defer func() { k.winRunning = false }()
	for {
		tc := k.clock.NextEventTime()
		ts := sim.Infinity
		for _, sh := range k.shards {
			if t := sh.clk.NextEventTime(); t < ts {
				ts = t
			}
		}
		if tc > deadline && ts > deadline {
			// Nothing left inside the run: bring every clock to the
			// deadline (fires nothing) and stop.
			for _, sh := range k.shards {
				if err := sh.clk.RunUntil(deadline); err != nil {
					return err
				}
			}
			return k.clock.RunUntil(deadline)
		}
		if tc <= ts {
			// A control event is next; ties resolve control-first. Shards
			// advance to the instant without firing anything due exactly
			// there, then the control clock drains everything at tc.
			for _, sh := range k.shards {
				if err := sh.clk.RunBefore(tc); err != nil {
					return err
				}
			}
			if err := k.clock.RunUntil(tc); err != nil {
				return err
			}
			k.deliverTriggers()
			continue
		}
		b := ts.Add(k.lookahead)
		if tc < b {
			b = tc
		}
		inclusive := false
		if b >= deadline {
			b = deadline
			// Events due exactly at the deadline fire (sequential
			// RunUntil semantics) — unless a control event is also due
			// there, which the next iteration serves first.
			inclusive = tc > deadline
		}
		if err := k.launchWindow(b, inclusive); err != nil {
			return err
		}
		k.mergeWindow()
		if err := k.clock.RunUntil(b); err != nil {
			return err
		}
		k.deliverTriggers()
	}
}

// launchWindow runs every shard up to horizon b. Windows where at most
// one shard has due work execute inline; otherwise one goroutine per
// shard runs the window in parallel.
func (k *Kernel) launchWindow(b sim.Time, inclusive bool) error {
	busy := 0
	for _, sh := range k.shards {
		sh.winB, sh.winIncl, sh.winErr = b, inclusive, nil
		if t := sh.clk.NextEventTime(); t < b || (inclusive && t == b) {
			busy++
		}
	}
	if busy <= 1 {
		for _, sh := range k.shards {
			sh.runWindow()
		}
	} else {
		k.winWG.Add(len(k.shards))
		for _, sh := range k.shards {
			go sh.runFn()
		}
		k.winWG.Wait()
	}
	for _, sh := range k.shards {
		if sh.winErr != nil {
			return sh.winErr
		}
	}
	return nil
}

// mergeWindow folds the shards' window trace buffers into the live sink
// and tracer in canonical (At, CPU) order. Each CPU's events arrive
// chronologically ordered within its shard's buffer and a CPU lives on
// exactly one shard, so a stable sort yields the engine-independent
// canonical order (see CanonicalizeTrace).
func (k *Kernel) mergeWindow() {
	if k.sink == nil && k.tracer == nil {
		return // shards recorded nothing
	}
	buf := k.mergeBuf[:0]
	for _, sh := range k.shards {
		buf = append(buf, sh.buf...)
		sh.buf = sh.buf[:0]
	}
	CanonicalizeTrace(buf)
	for i := range buf {
		k.trace(buf[i].At, buf[i].Kind, buf[i].Task, buf[i].CPU)
	}
	k.mergeBuf = buf
}

// TriggerAsync requests one job release of an aperiodic task by name.
// Unlike Task.Trigger it may be called from any goroutine — including a
// task body executing on another shard — making it the cross-shard event
// channel: the release is delivered at the next conservative barrier. A
// sequential kernel delivers immediately (it is single-threaded by
// contract). Deliveries within one barrier are applied in task-name
// order, so the resulting schedule is deterministic regardless of how
// the physical sends interleaved. Requests whose target is missing,
// periodic, or not active are counted as dropped; TriggerStats exposes
// the conservation ledger.
func (k *Kernel) TriggerAsync(name string) {
	if len(k.shards) == 1 {
		k.xs.sent++
		if t, ok := k.tasks[name]; ok && t.Trigger() == nil {
			k.xs.delivered++
		} else {
			k.xs.dropped++
		}
		return
	}
	k.xs.mu.Lock()
	k.xs.sent++
	k.xs.pending = append(k.xs.pending, name)
	k.xs.mu.Unlock()
}

// deliverTriggers applies all queued cross-shard trigger requests at a
// barrier. Delivery happens outside the queue lock: releasing a job
// dispatches it, and the task body may itself call TriggerAsync.
func (k *Kernel) deliverTriggers() {
	if len(k.shards) == 1 {
		return
	}
	k.xs.mu.Lock()
	batch := append(k.xs.batch[:0], k.xs.pending...)
	k.xs.pending = k.xs.pending[:0]
	k.xs.mu.Unlock()
	if len(batch) == 0 {
		k.xs.batch = batch
		return
	}
	sort.Strings(batch)
	var delivered, dropped uint64
	for _, name := range batch {
		if t, ok := k.tasks[name]; ok && t.Trigger() == nil {
			delivered++
		} else {
			dropped++
		}
	}
	k.xs.mu.Lock()
	k.xs.delivered += delivered
	k.xs.dropped += dropped
	k.xs.mu.Unlock()
	k.xs.batch = batch[:0]
}

// NoteDroppedTrigger records a trigger request that was lost before
// reaching the kernel — a release intent dropped by an external delivery
// fabric (a partitioned or lossy simulated network link) rather than by
// shard backpressure or a missing target. It counts as sent and dropped,
// so the conservation ledger still balances over the sender's intents:
// sent == delivered + dropped + queued regardless of where the loss
// happened. Safe from any goroutine, like TriggerAsync.
func (k *Kernel) NoteDroppedTrigger() {
	k.xs.mu.Lock()
	k.xs.sent++
	k.xs.dropped++
	k.xs.mu.Unlock()
}

// TriggerStats reports the cross-shard trigger conservation ledger:
// every request is eventually delivered, dropped, or still queued for
// the next barrier — sent == delivered + dropped + queued always holds
// at a barrier.
func (k *Kernel) TriggerStats() (sent, delivered, dropped, queued uint64) {
	k.xs.mu.Lock()
	defer k.xs.mu.Unlock()
	return k.xs.sent, k.xs.delivered, k.xs.dropped, uint64(len(k.xs.pending))
}

// Shards reports the configured shard count (1 = sequential engine).
func (k *Kernel) Shards() int { return len(k.shards) }

// ShardOf reports which shard owns a simulated CPU.
func (k *Kernel) ShardOf(cpuID int) int { return cpuID % len(k.shards) }

// EventsFired is the total number of simulation events executed across
// the control clock and every shard clock. For a sequential kernel it
// equals Clock().Fired().
func (k *Kernel) EventsFired() uint64 {
	n := k.clock.Fired()
	if len(k.shards) > 1 {
		for _, sh := range k.shards {
			n += sh.clk.Fired()
		}
	}
	return n
}

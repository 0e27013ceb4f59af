package rtos

import "repro/internal/sim"

// readyQueue is a priority heap of runnable jobs. Under fixed priority it
// orders by (priority, seq): lower priority value first, FIFO within a
// level, and re-enqueueing a job assigns a fresh seq, which yields
// round-robin rotation among equal priorities when the quantum expires.
// Under EDF it orders by (absolute deadline, seq). Both are strict total
// orders (seq is unique per CPU), so the pop sequence does not depend on
// the heap's shape.
//
// Each slot carries its job's primary key (priority or absolute deadline,
// fixed while the job is queued) and seq inline, so a sift compares slots
// without following the job and its task. Jobs keep their slot index in
// heapIdx because Suspend removes from the middle.
type readyQueue struct {
	items []readySlot
	edf   bool
}

type readySlot struct {
	key int64 // priority (fixed priority) or absolute deadline (EDF)
	seq uint64
	j   *job
}

func (a *readySlot) before(b *readySlot) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// set stores s at slot i and records the index in its job.
func (q *readyQueue) set(i int, s readySlot) {
	q.items[i] = s
	s.j.heapIdx = i
}

// up moves s toward the root from the hole at i.
func (q *readyQueue) up(i int, s readySlot) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&q.items[p]) {
			break
		}
		q.set(i, q.items[p])
		i = p
	}
	q.set(i, s)
}

// down moves s toward the leaves from the hole at i and reports whether
// it moved.
func (q *readyQueue) down(i int, s readySlot) bool {
	i0 := i
	n := len(q.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.items[r].before(&q.items[c]) {
			c = r
		}
		if !q.items[c].before(&s) {
			break
		}
		q.set(i, q.items[c])
		i = c
	}
	q.set(i, s)
	return i > i0
}

func (q *readyQueue) push(j *job) {
	j.queued = true
	key := int64(j.task.spec.Priority)
	if q.edf {
		key = int64(j.absDeadline)
	}
	q.items = append(q.items, readySlot{})
	q.up(len(q.items)-1, readySlot{key: key, seq: j.seq, j: j})
}

func (q *readyQueue) pop() *job {
	if len(q.items) == 0 {
		return nil
	}
	j := q.items[0].j
	q.cut(0)
	return j
}

func (q *readyQueue) peek() *job {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0].j
}

// remove withdraws a specific job (used by Suspend) through its stored
// heap index — O(log n) instead of a linear scan of the ready queue.
func (q *readyQueue) remove(j *job) {
	if !j.queued || j.heapIdx < 0 || j.heapIdx >= len(q.items) || q.items[j.heapIdx].j != j {
		return
	}
	q.cut(j.heapIdx)
}

// cut takes the job at slot i out of the queue, refilling the hole with
// the last slot.
func (q *readyQueue) cut(i int) {
	j := q.items[i].j
	n := len(q.items) - 1
	last := q.items[n]
	q.items[n] = readySlot{}
	q.items = q.items[:n]
	if i < n && !q.down(i, last) {
		q.up(i, last)
	}
	j.heapIdx = -1
	j.queued = false
}

// cpu is one simulated processor with its own run queue.
type cpu struct {
	id         int
	ready      readyQueue
	running    *job
	sliceStart sim.Time
	complEv    *sim.Event
	quantEv    *sim.Event
	nextSeq    uint64

	// completeFn and quantumFn are the slice-event handlers, bound once at
	// kernel construction so arming a slice allocates no closure.
	completeFn sim.Handler
	quantumFn  sim.Handler

	busy sim.Duration // accumulated execution time, for utilization reports

	// jobCtx is the JobContext handed to the bodies of jobs dispatched
	// here, reused job after job. bodyDepth counts bodies running on this
	// CPU: a body whose trigger preempts it runs the urgent body nested,
	// and that one gets a context of its own.
	jobCtx    JobContext
	bodyDepth int
}

// enqueue admits a job and preempts the running job if the newcomer is
// strictly more urgent.
func (c *cpu) enqueue(k *Kernel, j *job, now sim.Time) {
	j.seq = c.nextSeq
	c.nextSeq++
	c.ready.push(j)
	if c.running == nil {
		c.dispatch(k, now)
		return
	}
	if c.ready.edf {
		if j.absDeadline < c.running.absDeadline {
			c.preemptRunning(k, now)
			c.dispatch(k, now)
		}
		return // no quantum rotation under EDF
	}
	if j.task.spec.Priority < c.running.task.spec.Priority {
		c.preemptRunning(k, now)
		c.dispatch(k, now)
		return
	}
	// An equal-priority arrival starts round-robin rotation if the
	// current slice has no quantum armed yet.
	if k.quantum > 0 && c.quantEv == nil && j.task.spec.Priority == c.running.task.spec.Priority {
		c.armQuantum(k, now)
	}
}

// dispatch starts the most urgent ready job if the CPU is idle.
func (c *cpu) dispatch(k *Kernel, now sim.Time) {
	if c.running != nil {
		return
	}
	j := c.ready.pop()
	if j == nil {
		return
	}
	c.running = j
	c.sliceStart = now
	k.trace(now, TraceDispatch, j.task.spec.Name, c.id)
	if !j.dispatched {
		j.dispatched = true
		j.dispatchTime = now
		t := j.task
		t.latency.Add(int64(now.Sub(j.nominal)))
		if t.spec.Body != nil {
			jc := &c.jobCtx
			if c.bodyDepth > 0 {
				jc = new(JobContext)
			}
			*jc = JobContext{
				Kernel:  k,
				Task:    t,
				Now:     now,
				Nominal: j.nominal,
				Index:   t.jobsDone + t.skips, // monotone job index
			}
			c.bodyDepth++
			t.spec.Body(jc)
			c.bodyDepth--
		}
	}
	c.scheduleSlice(k, now)
}

// scheduleSlice arms the completion event and, if round-robin applies,
// the quantum event.
func (c *cpu) scheduleSlice(k *Kernel, now sim.Time) {
	j := c.running
	complAt := now.Add(j.remaining)
	ev, err := k.clock.Schedule(complAt, j.task.completeLabel, c.completeFn)
	if err != nil {
		panic(err) // virtual-time scheduling cannot fail here
	}
	c.complEv = ev
	if k.quantum > 0 && !c.ready.edf {
		if next := c.ready.peek(); next != nil && next.task.spec.Priority == j.task.spec.Priority {
			c.armQuantum(k, now)
		}
	}
}

// armQuantum schedules the end of the running job's time slice, measured
// from the start of the current slice. If the job completes first, the
// completion event cancels the quantum.
func (c *cpu) armQuantum(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil || c.quantEv != nil {
		return
	}
	at := c.sliceStart.Add(k.quantum)
	if at >= c.sliceStart.Add(j.remaining) {
		return // completion arrives first; no rotation needed
	}
	if at < now {
		at = now
	}
	qev, err := k.clock.Schedule(at, j.task.quantumLabel, c.quantumFn)
	if err != nil {
		panic(err)
	}
	c.quantEv = qev
}

// preemptRunning stops the current job, accounting consumed time, and
// returns it to the ready queue.
func (c *cpu) preemptRunning(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil {
		return
	}
	k.trace(now, TracePreempt, j.task.spec.Name, c.id)
	elapsed := now.Sub(c.sliceStart)
	j.remaining -= elapsed
	if j.remaining < 0 {
		j.remaining = 0
	}
	c.busy += elapsed
	j.task.consumed += elapsed
	c.cancelSliceEvents()
	c.running = nil
	j.seq = c.nextSeq
	c.nextSeq++
	c.ready.push(j)
}

// rotate ends the running job's quantum, moving it behind its
// equal-priority peers.
func (c *cpu) rotate(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil {
		return
	}
	elapsed := now.Sub(c.sliceStart)
	j.remaining -= elapsed
	if j.remaining < 0 {
		j.remaining = 0
	}
	c.busy += elapsed
	j.task.consumed += elapsed
	c.cancelSliceEvents()
	c.running = nil
	if j.remaining > 0 {
		k.trace(now, TraceRotate, j.task.spec.Name, c.id)
		j.seq = c.nextSeq
		c.nextSeq++
		c.ready.push(j)
	} else {
		c.finishJob(k, j, now)
		k.recycleJob(j)
	}
	c.dispatch(k, now)
}

// complete finishes the running job.
func (c *cpu) complete(k *Kernel, now sim.Time) {
	j := c.running
	if j == nil {
		return
	}
	c.busy += now.Sub(c.sliceStart)
	j.task.consumed += now.Sub(c.sliceStart)
	c.cancelSliceEvents()
	c.running = nil
	j.remaining = 0
	c.finishJob(k, j, now)
	k.recycleJob(j)
	c.dispatch(k, now)
}

func (c *cpu) finishJob(k *Kernel, j *job, now sim.Time) {
	t := j.task
	if t.state == TaskDeleted {
		return
	}
	k.trace(now, TraceComplete, t.spec.Name, c.id)
	t.response.Add(int64(now.Sub(j.nominal)))
	t.jobsDone++
	if d := t.deadline(); d > 0 && now > j.nominal.Add(d) {
		t.misses++
	}
	if t.pending == j {
		t.pending = nil
	}
}

func (c *cpu) cancelSliceEvents() {
	if c.complEv != nil {
		c.complEv.Cancel()
		c.complEv = nil
	}
	if c.quantEv != nil {
		c.quantEv.Cancel()
		c.quantEv = nil
	}
}

// allocJob takes a job from the kernel's free list.
func (k *Kernel) allocJob() *job {
	if j := k.freeJobs; j != nil {
		k.freeJobs = j.nextFree
		j.nextFree = nil
		return j
	}
	return &job{}
}

// recycleJob returns a finished (or withdrawn) job to the free list. The
// caller must guarantee no live reference remains: not running, not in
// a ready queue, and not a task's pending job.
func (k *Kernel) recycleJob(j *job) {
	*j = job{nextFree: k.freeJobs}
	k.freeJobs = j
}

// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual nanosecond clock, an event queue with stable ordering, and
// seedable pseudo-random streams.
//
// Everything above it in this repository (the simulated RTAI kernel, the
// DRCR runtime, the benchmark harness) advances time exclusively through
// this package, which makes every experiment reproducible bit-for-bit from
// its seed.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts trivially
// to and from time.Duration, which is also nanosecond-based.
type Duration = time.Duration

// Infinity is a sentinel time later than any schedulable event.
const Infinity Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration since simulation start.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return Duration(t).String()
}

// Handler is a callback run when an event fires. The handler may schedule
// further events on the same clock.
type Handler func(now Time)

// Event is a scheduled occurrence. The zero Event is invalid; obtain events
// through Clock.Schedule.
//
// An Event handle is live from Schedule until the event fires or its
// cancellation is collected; the clock then recycles the struct for later
// Schedule calls, so holders must drop their reference at fire time (every
// dispatcher in this repository nils its field first thing in the handler).
type Event struct {
	at      Time
	seq     uint64 // tie-break so equal-time events fire in schedule order
	fn      Handler
	queued  bool // in the queue (possibly cancelled, not yet collected)
	cancel  bool
	onClock *Clock
	free    *Event // free-list link while recycled
}

// Time reports when the event is (or was) due.
func (e *Event) Time() Time { return e.at }

// Cancel removes the event from its queue. Cancelling an already-fired or
// already-cancelled event is a no-op.
//
// Cancellation is lazy: the event is only marked dead and skipped (and its
// struct recycled) when the queue reaches it, so Cancel is O(1) instead of
// an O(log n) heap removal. A compaction pass keeps the queue from
// accumulating dead entries under cancel-heavy workloads.
func (e *Event) Cancel() {
	if e == nil || e.cancel || !e.queued || e.onClock == nil {
		return
	}
	e.cancel = true
	c := e.onClock
	c.cancelled++
	if c.cancelled > compactThreshold && c.cancelled > len(c.queue)/2 {
		c.compact()
	}
}

// compactThreshold is the minimum number of dead entries before a Cancel
// triggers queue compaction (and dead entries must also outnumber live
// ones). Small queues never compact; the per-pop skip handles them.
const compactThreshold = 64

// qentry is one slot of the event heap. The event's (time, seq) key is
// copied inline, so a sift compares slots without dereferencing events;
// an Event's at and seq are fixed from Schedule until it leaves the queue.
type qentry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before is the queue order: (time, seq), a strict total order because
// seq is unique per clock. Any heap over it pops the same sequence.
func (a *qentry) before(b *qentry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// arity is the event heap's fan-out. A 4-ary heap is half as deep as a
// binary one and a slot's children sit side by side in memory, so a pop
// walks half the levels for a few more compares per level. At the ~100
// live events of a loaded kernel it measures level with a binary heap
// and ahead of an 8-ary one (BenchmarkClockScheduleStep).
const arity = 4

// eventQueue is a min-heap of qentry slots ordered by before.
type eventQueue []qentry

// up moves the slot at i toward the root until its parent is earlier.
func (q eventQueue) up(i int) {
	x := q[i]
	for i > 0 {
		p := (i - 1) / arity
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// down places x in the heap, starting from the hole at i and moving the
// earliest child up while it is earlier than x.
func (q eventQueue) down(i int, x qentry) {
	n := len(q)
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + arity
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = x
}

// heapify establishes heap order over arbitrary slots (Floyd's bottom-up
// build). Queues of zero or one slot are already heaps.
func (q eventQueue) heapify() {
	n := len(q)
	if n < 2 {
		return
	}
	for i := (n - 2) / arity; i >= 0; i-- {
		q.down(i, q[i])
	}
}

// Clock is a discrete-event virtual clock. The zero value is ready to use
// at time zero. Clock is not safe for concurrent use; the simulation is
// single-threaded by design.
type Clock struct {
	now       Time
	queue     eventQueue
	nextSeq   uint64
	fired     uint64
	running   bool
	cancelled int    // dead entries still sitting in queue (lazy cancel)
	freeList  *Event // recycled Event structs, linked through Event.free
	freeLen   int
}

// freeListMax bounds the free list so a one-off scheduling burst does not
// pin its peak event count in memory forever.
const freeListMax = 1024

// ErrReentrantRun is returned when Run variants are invoked from inside an
// event handler.
var ErrReentrantRun = errors.New("sim: reentrant clock run")

// initialQueueCap pre-sizes the event heap so steady-state scheduling
// never grows the backing array.
const initialQueueCap = 128

// NewClock returns a clock at time zero.
func NewClock() *Clock {
	return &Clock{queue: make(eventQueue, 0, initialQueueCap)}
}

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Fired reports the total number of events executed so far.
func (c *Clock) Fired() uint64 { return c.fired }

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) is an error; scheduling exactly at Now is allowed and the
// event runs on the next step. The label only names the event in errors.
func (c *Clock) Schedule(at Time, label string, fn Handler) (*Event, error) {
	if fn == nil {
		return nil, errors.New("sim: nil handler")
	}
	if at < c.now {
		return nil, fmt.Errorf("sim: schedule %q at %v before now %v", label, at, c.now)
	}
	e := c.alloc()
	e.at, e.seq, e.fn, e.onClock, e.queued = at, c.nextSeq, fn, c, true
	c.nextSeq++
	c.queue = append(c.queue, qentry{at: at, seq: e.seq, ev: e})
	c.queue.up(len(c.queue) - 1)
	return e, nil
}

// pop removes and returns the earliest queued event, live or cancelled.
// The queue must not be empty.
func (c *Clock) pop() *Event {
	q := c.queue
	n := len(q) - 1
	e := q[0].ev
	last := q[n]
	q[n] = qentry{}
	q = q[:n]
	if n > 0 {
		q.down(0, last)
	}
	c.queue = q
	e.queued = false
	return e
}

// alloc takes an Event from the free list, falling back to the heap
// allocator only when the list is dry; in steady state every fired event
// is recycled and Schedule allocates nothing.
func (c *Clock) alloc() *Event {
	if e := c.freeList; e != nil {
		c.freeList = e.free
		c.freeLen--
		e.free = nil
		return e
	}
	return &Event{}
}

// recycle returns a dead (fired or collected-cancelled) event to the free
// list. The handler reference is dropped immediately so recycled events
// never pin user closures.
func (c *Clock) recycle(e *Event) {
	e.fn = nil
	e.cancel = false
	e.queued = false
	if c.freeLen >= freeListMax {
		return // let the GC take the overflow
	}
	e.free = c.freeList
	c.freeList = e
	c.freeLen++
}

// compact rebuilds the queue without its dead entries, recycling them.
// Heap order is re-established from the strict (time, seq) total order, so
// the pop sequence is unchanged.
func (c *Clock) compact() {
	live := c.queue[:0]
	for _, s := range c.queue {
		if s.ev.cancel {
			c.recycle(s.ev)
		} else {
			live = append(live, s)
		}
	}
	clear(c.queue[len(live):])
	c.queue = live
	c.cancelled = 0
	c.queue.heapify()
}

// After queues fn to run d from now. Negative d is an error.
func (c *Clock) After(d Duration, label string, fn Handler) (*Event, error) {
	if d < 0 {
		return nil, fmt.Errorf("sim: negative delay %v for %q", d, label)
	}
	return c.Schedule(c.now.Add(d), label, fn)
}

// Step fires the single earliest pending event, advancing the clock to its
// time. It reports whether an event fired.
func (c *Clock) Step() bool {
	for len(c.queue) > 0 {
		e := c.pop()
		if e.cancel {
			c.cancelled--
			c.recycle(e)
			continue
		}
		c.now = e.at
		c.fired++
		fn := e.fn
		e.fn = nil
		fn(c.now)
		// Recycle after the handler so the struct cannot be reused while
		// its own firing is still on the stack.
		c.recycle(e)
		return true
	}
	return false
}

// RunUntil fires events in order until the queue is empty or the next event
// is strictly after deadline, then advances the clock to deadline.
func (c *Clock) RunUntil(deadline Time) error {
	if c.running {
		return ErrReentrantRun
	}
	if deadline < c.now {
		return fmt.Errorf("sim: deadline %v before now %v", deadline, c.now)
	}
	c.running = true
	defer func() { c.running = false }()
	for len(c.queue) > 0 {
		next := c.peek()
		if next == nil {
			break
		}
		if next.at > deadline {
			break
		}
		c.Step()
	}
	if deadline > c.now && deadline != Infinity {
		c.now = deadline
	}
	return nil
}

// RunFor advances the clock by d, firing all events due in the window.
func (c *Clock) RunFor(d Duration) error {
	if d < 0 {
		return fmt.Errorf("sim: negative run duration %v", d)
	}
	return c.RunUntil(c.now.Add(d))
}

func (c *Clock) peek() *Event {
	for len(c.queue) > 0 {
		e := c.queue[0].ev
		if !e.cancel {
			return e
		}
		c.pop()
		c.cancelled--
		c.recycle(e)
	}
	return nil
}

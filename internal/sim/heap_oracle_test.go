package sim

import (
	"container/heap"
	"math/rand/v2"
	"strconv"
	"testing"
)

// The typed event heap is checked against a container/heap oracle: a
// clock that keeps *oracleEvent values in an interface heap ordered by
// (at, seq) and cancels eagerly with heap.Remove. Both orders are the
// same strict total order, so on any script of Schedule, Cancel, Step
// and RunUntil both clocks must fire the same (at, seq, label) sequence.

type oracleEvent struct {
	at    Time
	seq   uint64
	label string
	index int // heap index, -1 when not queued
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }

func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q oracleQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *oracleQueue) Push(x any) {
	e := x.(*oracleEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// firing is one fired event as both clocks report it.
type firing struct {
	at    Time
	seq   uint64
	label string
}

// clockModel is the script-facing surface both clocks implement. Events
// are named by script id; a fired event's handler calls onFire, which
// may schedule more events through the same model.
type clockModel interface {
	schedule(at Time, id int)
	cancel(id int)
	step() bool
	runUntil(deadline Time)
	now() Time
	pending() int
	fired() []firing
}

type typedModel struct {
	c           *Clock
	evs         map[int]*Event
	log         []firing
	onFire      func(m clockModel, id int)
	compactions int // Cancel calls that shrank the queue
}

func newTypedModel(onFire func(clockModel, int)) *typedModel {
	return &typedModel{c: NewClock(), evs: map[int]*Event{}, onFire: onFire}
}

func (m *typedModel) schedule(at Time, id int) {
	label := "e" + strconv.Itoa(id)
	var ev *Event
	ev, err := m.c.Schedule(at, label, func(now Time) {
		m.log = append(m.log, firing{now, ev.seq, label})
		delete(m.evs, id)
		m.onFire(m, id)
	})
	if err != nil {
		panic(err)
	}
	m.evs[id] = ev
}

func (m *typedModel) cancel(id int) {
	if ev := m.evs[id]; ev != nil {
		before := len(m.c.queue)
		ev.Cancel()
		if len(m.c.queue) < before {
			m.compactions++
		}
		delete(m.evs, id)
	}
}

func (m *typedModel) step() bool { return m.c.Step() }

func (m *typedModel) runUntil(deadline Time) {
	if err := m.c.RunUntil(deadline); err != nil {
		panic(err)
	}
}

func (m *typedModel) now() Time       { return m.c.Now() }
func (m *typedModel) pending() int    { return m.c.Pending() }
func (m *typedModel) fired() []firing { return m.log }

type oracleModel struct {
	t      Time
	q      oracleQueue
	seq    uint64
	evs    map[int]*oracleEvent
	ids    map[*oracleEvent]int
	log    []firing
	onFire func(m clockModel, id int)
}

func newOracleModel(onFire func(clockModel, int)) *oracleModel {
	return &oracleModel{evs: map[int]*oracleEvent{}, ids: map[*oracleEvent]int{}, onFire: onFire}
}

func (m *oracleModel) schedule(at Time, id int) {
	if at < m.t {
		panic("oracle: schedule in the past")
	}
	e := &oracleEvent{at: at, seq: m.seq, label: "e" + strconv.Itoa(id)}
	m.seq++
	heap.Push(&m.q, e)
	m.evs[id] = e
	m.ids[e] = id
}

func (m *oracleModel) cancel(id int) {
	if e := m.evs[id]; e != nil {
		heap.Remove(&m.q, e.index)
		delete(m.evs, id)
		delete(m.ids, e)
	}
}

func (m *oracleModel) step() bool {
	if len(m.q) == 0 {
		return false
	}
	e := heap.Pop(&m.q).(*oracleEvent)
	id := m.ids[e]
	delete(m.evs, id)
	delete(m.ids, e)
	m.t = e.at
	m.log = append(m.log, firing{e.at, e.seq, e.label})
	m.onFire(m, id)
	return true
}

func (m *oracleModel) runUntil(deadline Time) {
	for len(m.q) > 0 && m.q[0].at <= deadline {
		m.step()
	}
	if deadline > m.t && deadline != Infinity {
		m.t = deadline
	}
}

func (m *oracleModel) now() Time       { return m.t }
func (m *oracleModel) pending() int    { return len(m.q) }
func (m *oracleModel) fired() []firing { return m.log }

// childRule makes handler scheduling a pure function of the firing id,
// so both clocks grow the same events: every third event schedules a
// child, a fifth of those at the current instant (it fires after every
// event already queued for that instant).
func childRule(next *int) func(m clockModel, id int) {
	return func(m clockModel, id int) {
		if id%3 != 0 {
			return
		}
		d := Time((id * 7) % 23)
		if id%5 == 0 {
			d = 0
		}
		*next++
		m.schedule(m.now()+d, *next)
	}
}

// replayScript drives one seeded operation script on m: single and
// equal-time-burst schedules, cancels of random live events, steps,
// RunUntil windows and cancel storms large enough to compact the typed
// queue. live tracks ids the script believes are queued (children are
// not tracked, so they are never cancelled and always fire).
func replayScript(m clockModel, seed uint64, ops int) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	next := 0
	onFire := childRule(&next)
	switch mm := m.(type) {
	case *typedModel:
		mm.onFire = onFire
	case *oracleModel:
		mm.onFire = onFire
	}
	var live []int
	sched := func(at Time) {
		next++
		m.schedule(at, next)
		live = append(live, next)
	}
	cancelRandom := func() {
		if len(live) == 0 {
			return
		}
		i := rng.IntN(len(live))
		m.cancel(live[i])
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	for op := 0; op < ops; op++ {
		switch r := rng.IntN(100); {
		case r < 35:
			sched(m.now() + Time(rng.IntN(50)))
		case r < 42: // equal-time burst
			at := m.now() + Time(rng.IntN(10))
			for k := rng.IntN(12) + 2; k > 0; k-- {
				sched(at)
			}
		case r < 60:
			cancelRandom()
		case r < 88:
			m.step()
		case r < 96:
			m.runUntil(m.now() + Time(rng.IntN(30)))
		default: // cancel storm: past compactThreshold dead entries
			at := m.now() + Time(rng.IntN(20))
			base := len(live)
			for k := compactThreshold + rng.IntN(40); k > 0; k-- {
				sched(at + Time(rng.IntN(5)))
			}
			for len(live) > base/2 {
				cancelRandom()
			}
		}
	}
	for m.step() {
	}
}

func sameFirings(t *testing.T, what string, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: typed clock fired %d events, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: firing %d: typed %+v, oracle %+v", what, i, got[i], want[i])
		}
	}
}

// TestClockHeapMatchesOracle replays seeded scripts on the typed clock
// and on the container/heap oracle and requires identical firing
// sequences, with compaction exercised along the way.
func TestClockHeapMatchesOracle(t *testing.T) {
	compactions := 0
	for seed := uint64(1); seed <= 40; seed++ {
		typed := newTypedModel(nil)
		oracle := newOracleModel(nil)
		replayScript(typed, seed, 3000)
		replayScript(oracle, seed, 3000)
		what := "seed " + strconv.FormatUint(seed, 10)
		sameFirings(t, what, typed.fired(), oracle.fired())
		if len(typed.fired()) == 0 {
			t.Fatalf("%s: nothing fired", what)
		}
		if typed.now() != oracle.now() || typed.pending() != 0 || oracle.pending() != 0 {
			t.Fatalf("%s: end state typed (now %v, pending %d), oracle (now %v, pending %d)",
				what, typed.now(), typed.pending(), oracle.now(), oracle.pending())
		}
		compactions += typed.compactions
	}
	if compactions == 0 {
		t.Fatal("no script compacted the typed queue")
	}
	t.Logf("%d compactions over 40 scripts", compactions)
}

// TestClockCompactionEdges pins compaction at its trigger edge and on
// queues that drain to zero or one live entry: the 64th dead entry does
// not compact, the 65th does, and the compacted queue fires exactly what
// the oracle fires.
func TestClockCompactionEdges(t *testing.T) {
	for _, keep := range []int{0, 1, 2, 5} {
		t.Run("keep="+strconv.Itoa(keep), func(t *testing.T) {
			noChild := func(clockModel, int) {}
			typed := newTypedModel(noChild)
			oracle := newOracleModel(noChild)
			total := compactThreshold + 1 + keep
			for _, m := range []clockModel{typed, oracle} {
				for id := 0; id < total; id++ {
					m.schedule(Time(total-id), id) // reverse order: a real heap
				}
			}
			for id := 0; id < compactThreshold; id++ {
				typed.cancel(id)
				oracle.cancel(id)
			}
			if got := len(typed.c.queue); got != total {
				t.Fatalf("%d dead entries compacted the queue to %d slots; threshold is %d",
					compactThreshold, got, compactThreshold)
			}
			typed.cancel(compactThreshold)
			oracle.cancel(compactThreshold)
			if got := len(typed.c.queue); got != keep || typed.c.cancelled != 0 {
				t.Fatalf("after %d dead entries: %d slots, %d cancelled; want %d slots, 0 cancelled",
					compactThreshold+1, got, typed.c.cancelled, keep)
			}
			if typed.pending() != keep {
				t.Fatalf("Pending = %d, want %d", typed.pending(), keep)
			}
			// The compacted queue keeps working: a new event interleaves
			// with the survivors in (at, seq) order.
			typed.schedule(1, total)
			oracle.schedule(1, total)
			for typed.step() {
			}
			for oracle.step() {
			}
			sameFirings(t, "compacted", typed.fired(), oracle.fired())
			if len(typed.fired()) != keep+1 {
				t.Fatalf("fired %d events, want %d", len(typed.fired()), keep+1)
			}
		})
	}
}

// TestHeapifySmallQueues covers Floyd's build on the sizes where its
// first parent index degenerates.
func TestHeapifySmallQueues(t *testing.T) {
	for n := 0; n <= 2*arity+2; n++ {
		q := make(eventQueue, n)
		for i := range q {
			q[i] = qentry{at: Time(n - i), seq: uint64(i), ev: &Event{}}
		}
		q.heapify()
		for i := 1; i < n; i++ {
			if q[i].before(&q[(i-1)/arity]) {
				t.Fatalf("n=%d: slot %d is earlier than its parent", n, i)
			}
		}
	}
}

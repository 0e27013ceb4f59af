package rtos

import (
	"container/heap"
	"math/rand/v2"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// oracleReady is the container/heap ready queue the typed readyQueue
// replaced, kept as its oracle: the same (priority, seq) or (absolute
// deadline, seq) order, read through the job and its task on every
// compare.
type oracleReady struct {
	items []*job
	edf   bool
}

func (q *oracleReady) Len() int { return len(q.items) }

func (q *oracleReady) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if q.edf {
		if a.absDeadline != b.absDeadline {
			return a.absDeadline < b.absDeadline
		}
		return a.seq < b.seq
	}
	if a.task.spec.Priority != b.task.spec.Priority {
		return a.task.spec.Priority < b.task.spec.Priority
	}
	return a.seq < b.seq
}

func (q *oracleReady) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].heapIdx = i
	q.items[j].heapIdx = j
}

func (q *oracleReady) Push(x any) {
	it := x.(*job)
	it.heapIdx = len(q.items)
	q.items = append(q.items, it)
}

func (q *oracleReady) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.heapIdx = -1
	q.items = old[:n-1]
	return it
}

// TestReadyQueueMatchesOracle replays seeded push/pop/remove scripts on
// the typed ready queue and the container/heap oracle, under fixed
// priority and EDF, over mirrored job sets (each queue writes heapIdx
// into its own jobs). Keys come from small ranges so most compares fall
// through to the seq tie-break. Every pop and peek must name the same
// job, and every removal must leave both queues holding the same jobs.
func TestReadyQueueMatchesOracle(t *testing.T) {
	for _, edf := range []bool{false, true} {
		for seed := uint64(1); seed <= 30; seed++ {
			name := "fp"
			if edf {
				name = "edf"
			}
			t.Run(name+"/seed="+strconv.FormatUint(seed, 10), func(t *testing.T) {
				replayReadyScript(t, edf, seed)
			})
		}
	}
}

func replayReadyScript(t *testing.T, edf bool, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x4ead))
	const nJobs = 64
	tasks := make([]*Task, 8)
	for i := range tasks {
		tasks[i] = &Task{spec: TaskSpec{Priority: rng.IntN(4)}}
	}
	typedJobs := make([]*job, nJobs)
	oracleJobs := make([]*job, nJobs)
	id := map[*job]int{}
	for i := 0; i < nJobs; i++ {
		task := tasks[rng.IntN(len(tasks))]
		for _, js := range [][]*job{typedJobs, oracleJobs} {
			js[i] = &job{task: task, heapIdx: -1}
			id[js[i]] = i
		}
	}
	typed := readyQueue{edf: edf}
	oracle := oracleReady{edf: edf}
	var seq uint64
	pops, removes := 0, 0
	for op := 0; op < 4000; op++ {
		i := rng.IntN(nJobs)
		switch r := rng.IntN(10); {
		case r < 5: // push an idle job with a fresh seq
			tj, oj := typedJobs[i], oracleJobs[i]
			if tj.queued {
				continue
			}
			dl := sim.Time(rng.IntN(6))
			tj.absDeadline, oj.absDeadline = dl, dl
			tj.seq, oj.seq = seq, seq
			seq++
			typed.push(tj)
			oj.queued = true
			heap.Push(&oracle, oj)
		case r < 8: // pop the head
			got := typed.pop()
			var want *job
			if oracle.Len() > 0 {
				want = heap.Pop(&oracle).(*job)
				want.queued = false
			}
			if jobID(id, got) != jobID(id, want) {
				t.Fatalf("op %d: pop typed %v, oracle %v", op, jobID(id, got), jobID(id, want))
			}
			if got != nil {
				pops++
				if got.queued || got.heapIdx != -1 {
					t.Fatalf("op %d: popped job still marked queued (idx %d)", op, got.heapIdx)
				}
			}
		default: // Suspend-style removal from the middle
			tj, oj := typedJobs[i], oracleJobs[i]
			if !tj.queued {
				typed.remove(tj) // no-op on an idle job
				continue
			}
			typed.remove(tj)
			heap.Remove(&oracle, oj.heapIdx)
			oj.queued = false
			removes++
			if tj.queued || tj.heapIdx != -1 {
				t.Fatalf("op %d: removed job still marked queued (idx %d)", op, tj.heapIdx)
			}
		}
		var head *job
		if oracle.Len() > 0 {
			head = oracle.items[0]
		}
		if got := typed.peek(); jobID(id, got) != jobID(id, head) {
			t.Fatalf("op %d: peek typed %v, oracle %v", op, jobID(id, got), jobID(id, head))
		}
		for k, s := range typed.items {
			if s.j.heapIdx != k {
				t.Fatalf("op %d: job %d at slot %d records heapIdx %d", op, id[s.j], k, s.j.heapIdx)
			}
		}
	}
	if len(typed.items) != oracle.Len() {
		t.Fatalf("typed queue holds %d jobs, oracle %d", len(typed.items), oracle.Len())
	}
	if pops == 0 || removes == 0 {
		t.Fatalf("script exercised %d pops and %d removes", pops, removes)
	}
}

func jobID(id map[*job]int, j *job) string {
	if j == nil {
		return "none"
	}
	return "job " + strconv.Itoa(id[j])
}

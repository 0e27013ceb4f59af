// Per-shard span emission: at Full level on a sharded kernel, scheduler
// spans no longer funnel through the sequential control plane. Each
// rtos shard gets its own emitter — a lock-free, shard-goroutine-local
// staging buffer fed by the kernel's per-shard trace sinks — and the
// window barrier merges the staged spans under the stable (At, CPU,
// seq) order before assigning IDs and folding counters, exactly where
// the old funnel would have replayed them. Because a CPU lives on
// exactly one shard and each buffer preserves its shard's chronological
// order, a stable sort of the concatenation (shard order) by (At, CPU)
// reproduces the canonical sequential order byte for byte — so span
// IDs, Digest and StreamDigest are identical to the funnel's at every
// shard count, which the differential tests pin.

package obs

import (
	"sort"

	"repro/internal/rtos"
	"repro/internal/sim"
)

// shardEmitter is one shard's staging buffer. It is written only by its
// shard's goroutine during a window and drained only at barriers on the
// control goroutine, so it needs no lock.
type shardEmitter struct {
	staged []stagedSched
}

// stagedSched is a scheduler event staged before ID assignment. Only
// the fields a sched span carries are staged; the merge builds the Span.
type stagedSched struct {
	at   int64 // sim.Time
	kind rtos.TraceEventKind
	task string
	cpu  int
}

// schedSorter stable-sorts staged events by (At, CPU); it lives on the
// Plane so sorting allocates nothing. Equal (At, CPU) pairs keep their
// buffer order — each CPU's events are chronological within one shard
// — matching rtos.CanonicalizeTrace.
type schedSorter struct{ s []stagedSched }

func (ss *schedSorter) Len() int { return len(ss.s) }
func (ss *schedSorter) Less(i, j int) bool {
	if ss.s[i].at != ss.s[j].at {
		return ss.s[i].at < ss.s[j].at
	}
	return ss.s[i].cpu < ss.s[j].cpu
}
func (ss *schedSorter) Swap(i, j int) { ss.s[i], ss.s[j] = ss.s[j], ss.s[i] }

// ensureEmitters sizes the per-shard emitter set and sink table.
func (p *Plane) ensureEmitters(n int) {
	if len(p.emitters) == n {
		return
	}
	p.emitters = make([]*shardEmitter, n)
	p.shardSinks = make([]rtos.TraceSink, n)
	for i := range p.emitters {
		e := &shardEmitter{}
		p.emitters[i] = e
		p.shardSinks[i] = func(at sim.Time, kind rtos.TraceEventKind, task string, cpu int) {
			e.staged = append(e.staged, stagedSched{at: int64(at), kind: kind, task: task, cpu: cpu})
		}
	}
}

// mergeShards drains every emitter at a window barrier: concatenate in
// shard order, stable-sort by (At, CPU), then emit each sched span on
// the control goroutine — the same IDs, digests and counters the funnel
// would have produced.
func (p *Plane) mergeShards() {
	buf := p.schedMerge[:0]
	for _, e := range p.emitters {
		buf = append(buf, e.staged...)
		e.staged = e.staged[:0]
	}
	if len(buf) == 0 {
		p.schedMerge = buf
		return
	}
	p.sorter.s = buf
	sort.Stable(&p.sorter)
	p.sorter.s = nil
	for i := range buf {
		p.c.schedEvents++
		p.emit(Span{At: sim.Time(buf[i].at), Kind: KindSched, Component: buf[i].task, To: buf[i].kind.String(), N: int64(buf[i].cpu)})
	}
	p.schedMerge = buf
}

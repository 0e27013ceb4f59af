package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// ringPair is the same federation traced twice: once into planes whose
// rings grow on demand, once into planes whose rings are allocated at
// full capacity up front (the layout before on-demand growth).
type ringPair struct {
	grown, prealloc map[string]*Plane
}

func newRingPair(capacity int) ringPair {
	mk := func(full bool) map[string]*Plane {
		planes := map[string]*Plane{}
		for _, name := range []string{"cluster", "n0"} {
			p := NewPlane(Options{Node: name, Capacity: capacity})
			if full {
				p.ring = make([]Span, 0, capacity)
			}
			planes[name] = p
		}
		return planes
	}
	return ringPair{grown: mk(false), prealloc: mk(true)}
}

// emit drives span i into both federations: a control-plane send, a
// node-local transition chained to it through the remote-cause table
// (every third one) or to the component's previous span.
func (r ringPair) emit(i int) {
	for _, planes := range []map[string]*Plane{r.grown, r.prealloc} {
		cl, n0 := planes["cluster"], planes["n0"]
		comp := fmt.Sprintf("c%d", i%7)
		send := cl.Send(sim.Time(i), comp, "cluster", "n0", "op", 0)
		var cause SpanID
		if i%3 != 0 {
			if last, ok := n0.Last(comp); ok {
				cause = last.ID
			}
		}
		n0.SetRemoteCause(Ref{Node: "cluster", ID: send})
		n0.Transition(sim.Time(i), comp, "A", "B", "step", cause)
		n0.ClearRemoteCause()
	}
}

// TestRingGrowthMatchesPreallocated emits up to and across the ring's
// capacity — one short of it, exactly it, one past it and twice it —
// and requires retention, range reads and stitched Why-chains to be
// identical to a preallocated ring, with a full ring's capacity exactly
// the configured one.
func TestRingGrowthMatchesPreallocated(t *testing.T) {
	for _, tc := range []struct{ capacity, spans int }{
		{8192, 8191}, {8192, 8192}, {8192, 8193}, {8192, 2 * 8192},
		{100, 63}, {100, 64}, {100, 65}, {100, 200},
	} {
		r := newRingPair(tc.capacity)
		// Each emit puts one span on each plane.
		for i := 1; i <= tc.spans; i++ {
			r.emit(i)
		}
		for _, node := range []string{"cluster", "n0"} {
			g, p := r.grown[node], r.prealloc[node]
			label := fmt.Sprintf("capacity %d, %d spans, %s", tc.capacity, tc.spans, node)
			for id := SpanID(0); id <= SpanID(tc.spans)+1; id++ {
				gs, gok := g.Span(id)
				ps, pok := p.Span(id)
				if gok != pok || gs != ps {
					t.Fatalf("%s: Span(%d) = %v,%v, preallocated %v,%v", label, id, gs, gok, ps, pok)
				}
				if gok != (id >= 1 && int(id) > tc.spans-tc.capacity && int(id) <= tc.spans) {
					t.Fatalf("%s: Span(%d) retained = %v", label, id, gok)
				}
			}
			for _, from := range []SpanID{0, 1, SpanID(tc.spans / 2), SpanID(tc.spans), SpanID(tc.spans + 1)} {
				if gs, ps := g.SpansSince(from), p.SpansSince(from); !reflect.DeepEqual(gs, ps) {
					t.Fatalf("%s: SpansSince(%d) returned %d spans, preallocated %d", label, from, len(gs), len(ps))
				}
			}
			if want := min(tc.spans, tc.capacity); len(g.Spans()) != want {
				t.Fatalf("%s: %d spans retained, want %d", label, len(g.Spans()), want)
			}
			if tc.spans >= tc.capacity && cap(g.ring) != tc.capacity {
				t.Fatalf("%s: full ring cap %d, want exactly %d", label, cap(g.ring), tc.capacity)
			}
			if cap(g.ring) > tc.capacity {
				t.Fatalf("%s: ring cap %d exceeds capacity %d", label, cap(g.ring), tc.capacity)
			}
			if len(g.remote) > 2*tc.capacity+1 {
				t.Fatalf("%s: remote table holds %d entries for a %d-span ring", label, len(g.remote), tc.capacity)
			}
		}
		for i := 0; i < 7; i++ {
			comp := fmt.Sprintf("c%d", i)
			gw, pw := StitchWhy(r.grown, "n0", comp), StitchWhy(r.prealloc, "n0", comp)
			if len(gw) < 2 || !reflect.DeepEqual(gw, pw) {
				t.Fatalf("capacity %d, %d spans: StitchWhy(%s) = %d hops, preallocated %d",
					tc.capacity, tc.spans, comp, len(gw), len(pw))
			}
		}
	}
}

// A plane that emits little keeps a small ring.
func TestRingStartsSmall(t *testing.T) {
	p := NewPlane(Options{})
	p.Deploy(0, "calc", "UNSATISFIED", "")
	if cap(p.ring) != ringStart {
		t.Fatalf("fresh ring cap %d, want %d", cap(p.ring), ringStart)
	}
	for i := 0; i < ringStart; i++ {
		p.Deploy(0, "calc", "UNSATISFIED", "")
	}
	if cap(p.ring) != 2*ringStart {
		t.Fatalf("ring cap after %d spans = %d, want %d", ringStart+1, cap(p.ring), 2*ringStart)
	}
}

// TestSnapshotSpansRetained holds Snapshot's retained count, computed
// without copying the ring, to the length of Spans() before the ring
// fills, exactly at capacity and after it wraps.
func TestSnapshotSpansRetained(t *testing.T) {
	const capacity = 16
	p := NewPlane(Options{Capacity: capacity})
	for i := 1; i <= 3*capacity; i++ {
		p.Deploy(sim.Time(i), fmt.Sprintf("c%d", i%5), "U", "")
		switch i {
		case 1, capacity - 1, capacity, capacity + 1, 3 * capacity:
			s := p.Snapshot()
			if s.SpansRetained != len(p.Spans()) {
				t.Fatalf("after %d spans: retained %d, Spans() holds %d", i, s.SpansRetained, len(p.Spans()))
			}
			if want := min(i, capacity); s.SpansRetained != want {
				t.Fatalf("after %d spans: retained %d, want %d", i, s.SpansRetained, want)
			}
		}
	}
	if got := NewPlane(Options{}).Snapshot().SpansRetained; got != 0 {
		t.Fatalf("empty plane retains %d spans", got)
	}
}

// TestSnapshotComponentsSorted holds Snapshot's per-component rows, read
// from the name index the plane keeps as components are first seen, to
// the sorted perComp keys, with each row's counters, while seeded spans
// name new and repeated components in random order.
func TestSnapshotComponentsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := NewPlane(Options{Capacity: 64})
	for i := 1; i <= 2000; i++ {
		name := fmt.Sprintf("c%03d", rng.Intn(300))
		switch rng.Intn(4) {
		case 0:
			p.Deploy(sim.Time(i), name, "U", "")
		case 1:
			p.Deny(sim.Time(i), name, "no cpu", 0)
		case 2:
			p.Revoke(sim.Time(i), name, "")
		default:
			p.Violation(sim.Time(i), name, "BudgetOverrun", "", 0)
		}
		if i%97 != 0 && i != 2000 {
			continue
		}
		keys := make([]string, 0, len(p.perComp))
		for k := range p.perComp {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		rows := p.Snapshot().Components
		if len(rows) != len(keys) {
			t.Fatalf("after %d spans: %d component rows, %d perComp keys", i, len(rows), len(keys))
		}
		for j, row := range rows {
			cc := p.perComp[keys[j]]
			if row.Name != keys[j] || row.Transitions != cc.transitions || row.Denials != cc.denials ||
				row.Revocations != cc.revocations || row.Violations != cc.violations {
				t.Fatalf("after %d spans: row %d = %+v, want %s %+v", i, j, row, keys[j], *cc)
			}
		}
	}
}

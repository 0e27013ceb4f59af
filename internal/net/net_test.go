package net

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n * int64(time.Millisecond)) }

// drive advances the network over a barrier grid, returning everything
// it produced in order.
func drive(n *Network, step time.Duration, until sim.Time) (del, drop []Message, topo []TopoEvent) {
	for t := sim.Time(0); t <= until; t = t.Add(sim.Duration(step)) {
		d, dr, tp := n.Advance(t)
		del = append(del, d...)
		drop = append(drop, dr...)
		topo = append(topo, tp...)
	}
	return del, drop, topo
}

func TestDeliveryOrderAndLatencyBound(t *testing.T) {
	n := New(Config{Nodes: 3, Seed: 7, Latency: 500 * time.Microsecond, Jitter: 200 * time.Microsecond})
	for i := 0; i < 20; i++ {
		n.Send(ms(1), Message{Src: i % 2, Dst: 2, Kind: Data, Topic: fmt.Sprintf("t%d", i)})
	}
	del, _, _ := drive(n, 500*time.Microsecond, ms(5))
	if len(del) != 20 {
		t.Fatalf("delivered %d of 20", len(del))
	}
	look, worst := sim.Duration(n.Lookahead()), sim.Duration(n.MaxLatency())
	var prev Message
	for i, m := range del {
		if m.DeliverAt.Sub(m.SentAt) < look {
			t.Errorf("msg %d delivered after %v < lookahead %v", i, m.DeliverAt.Sub(m.SentAt), look)
		}
		if m.DeliverAt.Sub(m.SentAt) >= worst {
			t.Errorf("msg %d delivered after %v >= max latency %v", i, m.DeliverAt.Sub(m.SentAt), worst)
		}
		if i > 0 {
			if m.DeliverAt < prev.DeliverAt {
				t.Errorf("msg %d out of time order", i)
			}
			if m.DeliverAt == prev.DeliverAt && (m.Src < prev.Src || (m.Src == prev.Src && m.Seq < prev.Seq)) {
				t.Errorf("msg %d breaks (src,seq) tiebreak", i)
			}
		}
		prev = m
	}
}

// TestJitterDefaultsToNone: an unset Jitter adds nothing to the link
// latency, and a negative one clamps to zero like DropProb and DupProb.
func TestJitterDefaultsToNone(t *testing.T) {
	for _, jitter := range []time.Duration{0, -time.Millisecond} {
		n := New(Config{Nodes: 2, Jitter: jitter})
		if got, want := n.MaxLatency(), n.Lookahead(); got != want {
			t.Errorf("Jitter %v: MaxLatency %v, want the bare latency %v", jitter, got, want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() string {
		n := New(Config{Nodes: 4, Seed: 42, DropProb: 0.2, DupProb: 0.1})
		for i := 0; i < 50; i++ {
			n.Send(ms(int64(1+i/10)), Message{Src: i % 4, Dst: (i + 1) % 4, Kind: Heartbeat, Topic: fmt.Sprint(i)})
		}
		del, drop, _ := drive(n, 500*time.Microsecond, ms(20))
		s := ""
		for _, m := range del {
			s += fmt.Sprintf("D%d:%d:%s:%d;", m.Src, m.Dst, m.Topic, m.DeliverAt)
		}
		for _, m := range drop {
			s += fmt.Sprintf("X%d:%d:%s;", m.Src, m.Dst, m.Topic)
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

func TestDeterminismUnderEnqueueInterleaving(t *testing.T) {
	// The same logical sends handed to Send in a different physical order
	// (as parallel node windows would) must yield identical outcomes,
	// because ingest sorts by (SentAt, Src, Seq) and each link has its own
	// RNG. Per-source order is preserved (it is the Seq assignment order).
	type send struct {
		at sim.Time
		m  Message
	}
	var sends []send
	for i := 0; i < 30; i++ {
		sends = append(sends, send{ms(1), Message{Src: i % 3, Dst: (i + 1) % 3, Kind: Data, Topic: fmt.Sprint(i)}})
	}
	run := func(order []int) string {
		n := New(Config{Nodes: 3, Seed: 9, DropProb: 0.3, Jitter: 300 * time.Microsecond})
		for _, i := range order {
			n.Send(sends[i].at, sends[i].m)
		}
		del, drop, _ := drive(n, 500*time.Microsecond, ms(10))
		s := ""
		for _, m := range del {
			s += fmt.Sprintf("D%s@%d;", m.Topic, m.DeliverAt)
		}
		for _, m := range drop {
			s += fmt.Sprintf("X%s;", m.Topic)
		}
		return s
	}
	natural := make([]int, len(sends))
	for i := range natural {
		natural[i] = i
	}
	// Interleave sources differently while preserving per-source order:
	// all of src 0's sends, then src 1's, then src 2's.
	var grouped []int
	for src := 0; src < 3; src++ {
		for i := range sends {
			if sends[i].m.Src == src {
				grouped = append(grouped, i)
			}
		}
	}
	if a, b := run(natural), run(grouped); a != b {
		t.Fatalf("enqueue interleaving changed outcomes:\n%s\n%s", a, b)
	}
}

func TestPartitionDropsAndHeals(t *testing.T) {
	n := New(Config{Nodes: 4, Seed: 3})
	n.SchedulePartition(ms(2), 4*time.Millisecond, 0, 1)

	// In flight across the cut when it lands: dropped.
	n.Send(ms(1), Message{Src: 0, Dst: 2, Kind: Data, Topic: "cut"})
	d, dr, tp := n.Advance(ms(1))
	if len(d) != 0 || len(dr) != 0 || len(tp) != 0 {
		t.Fatalf("premature activity: %d/%d/%d", len(d), len(dr), len(tp))
	}
	d, dr, tp = n.Advance(ms(2))
	if len(tp) != 1 || tp[0].Heal || tp[0].Cut != "0,1|2,3" {
		t.Fatalf("partition event wrong: %+v", tp)
	}
	if len(dr) != 1 || dr[0].Topic != "cut" {
		t.Fatalf("in-flight message not cut: %+v", dr)
	}

	// Sends across the cut while partitioned: dropped; within a side: fine.
	n.Send(ms(2), Message{Src: 1, Dst: 3, Kind: Data, Topic: "blocked"})
	n.Send(ms(2), Message{Src: 0, Dst: 1, Kind: Data, Topic: "sameside"})
	n.Send(ms(2), Message{Src: 2, Dst: 3, Kind: Data, Topic: "otherside"})
	del, drop, _ := drive(n, time.Millisecond, ms(5))
	if len(drop) != 1 || drop[0].Topic != "blocked" {
		t.Fatalf("cross-cut send not dropped: %+v", drop)
	}
	if len(del) != 2 {
		t.Fatalf("intra-side sends lost: %+v", del)
	}
	if !n.Partitioned(0, 2) || n.Partitioned(0, 1) {
		t.Fatal("cut matrix wrong while partitioned")
	}

	// After the heal, the link carries traffic again.
	_, _, tp = n.Advance(ms(6))
	if len(tp) != 1 || !tp[0].Heal {
		t.Fatalf("heal event missing: %+v", tp)
	}
	n.Send(ms(6), Message{Src: 0, Dst: 3, Kind: Data, Topic: "healed"})
	del, drop, _ = drive(n, time.Millisecond, ms(9))
	if len(del) != 1 || del[0].Topic != "healed" || len(drop) != 0 {
		t.Fatalf("post-heal delivery failed: %+v / %+v", del, drop)
	}
}

func TestConservationLedger(t *testing.T) {
	n := New(Config{Nodes: 4, Seed: 11, DropProb: 0.25, DupProb: 0.15})
	n.SchedulePartition(ms(5), 5*time.Millisecond, 0)
	var delivered, dropped uint64
	for step := int64(0); step <= 40; step++ {
		now := sim.Time(step * int64(500*time.Microsecond))
		if step%2 == 0 {
			src := int(step) % 4
			n.Send(now, Message{Src: src, Dst: (src + 1) % 4, Kind: Report, Topic: "r"})
			n.Send(now, Message{Src: src, Dst: (src + 2) % 4, Kind: Data, Topic: "d"})
		}
		del, dr, _ := n.Advance(now)
		delivered += uint64(len(del))
		dropped += uint64(len(dr))
		s := n.Stats()
		if s.Sent+s.Duplicated != s.Delivered+s.Dropped+uint64(s.Inflight) {
			t.Fatalf("ledger broken at %v: %+v", now, s)
		}
		if s.Delivered != delivered || s.Dropped != dropped {
			t.Fatalf("ledger disagrees with returns at %v: %+v vs %d/%d", now, s, delivered, dropped)
		}
		if s.Dropped != s.PartitionDrops+s.LossDrops {
			t.Fatalf("drop split broken: %+v", s)
		}
	}
	if delivered == 0 || dropped == 0 {
		t.Fatalf("campaign too tame: delivered=%d dropped=%d", delivered, dropped)
	}
}

func TestSelfAndOutOfRangeSendsIgnored(t *testing.T) {
	n := New(Config{Nodes: 2, Seed: 1})
	n.Send(0, Message{Src: 0, Dst: 0, Kind: Data})
	n.Send(0, Message{Src: -1, Dst: 1, Kind: Data})
	n.Send(0, Message{Src: 0, Dst: 5, Kind: Data})
	if s := n.Stats(); s.Sent != 0 {
		t.Fatalf("invalid sends counted: %+v", s)
	}
}

func TestOverlappingPartitions(t *testing.T) {
	// Two overlapping cuts isolating node 0; the link stays down until the
	// *last* one heals.
	n := New(Config{Nodes: 3, Seed: 5})
	n.SchedulePartition(ms(1), 2*time.Millisecond, 0)
	n.SchedulePartition(ms(2), 3*time.Millisecond, 0)
	n.Advance(ms(2))
	if !n.Partitioned(0, 1) {
		t.Fatal("not cut during overlap")
	}
	n.Advance(ms(3)) // first heals; second still active
	if !n.Partitioned(0, 1) {
		t.Fatal("healed too early")
	}
	n.Advance(ms(5))
	if n.Partitioned(0, 1) {
		t.Fatal("still cut after both healed")
	}
}

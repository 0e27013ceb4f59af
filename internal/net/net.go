// Package net is a seeded, deterministic simulated network for
// federating DRCR nodes (package cluster): per-directed-link latency
// distributions, probabilistic drop and duplication, and scheduled
// partition/heal cycles, all advanced on the cluster's barrier grid in
// virtual time — the same discipline as the fault injector (package
// fault) applies to a single node.
//
// Determinism rests on three rules:
//
//   - Sends enqueue per source node and are ingested only at barriers,
//     sorted by (SentAt, Src, Seq); the per-source Seq is assigned in the
//     source's own deterministic execution order, so the global ingest
//     order is independent of how the physical sends interleaved.
//   - Every latency/drop/duplication draw comes from the RNG of the
//     message's directed link, in ingest order — one deterministic stream
//     per (src,dst) pair, untouched by traffic on other links.
//   - Deliveries pop in (DeliverAt, Src, Seq) order, and the minimum
//     link latency is the cluster's conservative lookahead bound: a
//     message sent inside a window can never be due before the window's
//     closing barrier, so no node ever needs to roll back.
//
// The ledger invariant sent + duplicated == delivered + dropped +
// inflight holds at every barrier; Stats exposes it.
package net

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
)

// Config parameterises a Network.
type Config struct {
	// Nodes is the node count (required, ≥ 1).
	Nodes int
	// Seed feeds every link RNG (default 1).
	Seed uint64
	// Latency is the minimum one-way link latency — also the cluster's
	// conservative lookahead bound (default 500µs, must be > 0 after
	// defaulting).
	Latency time.Duration
	// Jitter is the width of the uniform extra latency [0, Jitter)
	// added per message (default 100µs; 0 disables).
	Jitter time.Duration
	// DropProb is the per-message loss probability on a healthy link.
	DropProb float64
	// DupProb is the per-message duplication probability; a duplicate
	// takes an independent latency draw.
	DupProb float64
}

func (c *Config) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Latency <= 0 {
		c.Latency = 500 * time.Microsecond
	}
	if c.Jitter < 0 {
		c.Jitter = 100 * time.Microsecond
	}
	if c.DropProb < 0 {
		c.DropProb = 0
	}
	if c.DupProb < 0 {
		c.DupProb = 0
	}
}

// Kind classifies a message for the receiving dispatcher.
type Kind uint8

// Message kinds the federation layer exchanges.
const (
	// Heartbeat feeds the failure detectors.
	Heartbeat Kind = iota + 1
	// Report carries a node's load/degradation summary to its leader.
	Report
	// Provision announces (or, with Note "off", withdraws) a remote
	// port provision.
	Provision
	// Data replicates port payload bytes to a topic's SHM replica.
	Data
	// Trigger requests one aperiodic release on the destination kernel.
	Trigger
	// Control carries a leader command: revoke, restore, migrate-add,
	// migrate-rm (Note selects the verb).
	Control
)

func (k Kind) String() string {
	switch k {
	case Heartbeat:
		return "hb"
	case Report:
		return "report"
	case Provision:
		return "provision"
	case Data:
		return "data"
	case Trigger:
		return "trigger"
	case Control:
		return "control"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Message is one unit in flight between nodes.
type Message struct {
	Src, Dst int
	Kind     Kind
	// Topic names the subject: a port topic, component, or task name.
	Topic string
	// Note carries the verb or detail ("off", "revoke", "migrate-add"...).
	Note string
	// Payload is port data for Data messages, report numbers otherwise.
	Payload []int64
	// SentAt / DeliverAt are assigned at enqueue / ingest.
	SentAt    sim.Time
	DeliverAt sim.Time
	// Seq is the per-source sequence number, the deterministic tiebreak.
	Seq uint64
	// Cause carries the sender's span ID so the receiver can chain its
	// Recv span to the Send (opaque to the network).
	Cause uint64
}

// TopoEvent is one partition opening or healing, returned by Advance so
// the federation layer can trace it.
type TopoEvent struct {
	At   sim.Time
	Heal bool
	// Cut renders the side membership, e.g. "0,1|2,3".
	Cut string
	// Index identifies the partition schedule entry (heal events carry
	// the index of the partition they close).
	Index int
}

// partition is one scheduled cut: links between Side and its complement
// are severed during [At, At+For).
type partition struct {
	at, until sim.Time
	side      []int
	cut       string
	applied   bool
	healed    bool
}

// Stats is the conservation ledger.
type Stats struct {
	Sent       uint64
	Duplicated uint64
	Delivered  uint64
	Dropped    uint64
	// PartitionDrops / LossDrops split Dropped by cause.
	PartitionDrops uint64
	LossDrops      uint64
	Inflight       int
}

// Network is the simulated fabric.
type Network struct {
	cfg Config

	mu      sync.Mutex
	pending [][]Message // per-src enqueue queues (thread-safe side)
	seq     []uint64
	batch   []Message // Advance's reused ingest buffer

	rng      []*sim.Rand // per directed link, index src*Nodes+dst
	inflight []Message   // sorted by (DeliverAt, Src, Seq)
	parts    []partition
	cutCount [][]int // active partitions separating each pair

	stats Stats
}

// New builds a network.
func New(cfg Config) *Network {
	cfg.applyDefaults()
	n := &Network{cfg: cfg}
	n.pending = make([][]Message, cfg.Nodes)
	n.seq = make([]uint64, cfg.Nodes)
	root := sim.NewRand(cfg.Seed)
	n.rng = make([]*sim.Rand, cfg.Nodes*cfg.Nodes)
	for i := range n.rng {
		n.rng[i] = root.Fork()
	}
	n.cutCount = make([][]int, cfg.Nodes)
	for i := range n.cutCount {
		n.cutCount[i] = make([]int, cfg.Nodes)
	}
	return n
}

// Lookahead is the conservative window bound: the minimum one-way
// latency. A cluster advancing its nodes in windows of at most this
// width never needs to roll a node back for a late message.
func (n *Network) Lookahead() time.Duration { return n.cfg.Latency }

// SchedulePartition cuts every link between side and its complement
// during [at, at+dur). Scheduling is idempotent bookkeeping only; the
// cut applies when Advance crosses at. Returns the partition index.
func (n *Network) SchedulePartition(at sim.Time, dur time.Duration, side ...int) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	member := make([]bool, n.cfg.Nodes)
	var in, out []string
	sorted := append([]int(nil), side...)
	sort.Ints(sorted)
	for _, s := range sorted {
		if s >= 0 && s < n.cfg.Nodes {
			member[s] = true
			in = append(in, fmt.Sprint(s))
		}
	}
	for i := 0; i < n.cfg.Nodes; i++ {
		if !member[i] {
			out = append(out, fmt.Sprint(i))
		}
	}
	p := partition{
		at:    at,
		until: at.Add(sim.Duration(dur)),
		side:  sorted,
		cut:   strings.Join(in, ",") + "|" + strings.Join(out, ","),
	}
	n.parts = append(n.parts, p)
	return len(n.parts) - 1
}

// Partitioned reports whether the link a→b is currently cut.
func (n *Network) Partitioned(a, b int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cutCount[a][b] > 0
}

// Send enqueues a message; Src, Dst, Kind and payload fields must be
// set by the caller, SentAt is stamped here from the supplied time.
// Safe from any goroutine: with cluster.Config.Parallel, task bodies on
// different nodes send while their kernels advance concurrently.
func (n *Network) Send(at sim.Time, m Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.Src < 0 || m.Src >= n.cfg.Nodes || m.Dst < 0 || m.Dst >= n.cfg.Nodes || m.Src == m.Dst {
		return
	}
	m.SentAt = at
	m.Seq = n.seq[m.Src]
	n.seq[m.Src]++
	n.stats.Sent++
	n.pending[m.Src] = append(n.pending[m.Src], m)
}

// Advance moves the fabric to the barrier instant now: applies topology
// events due, ingests every pending send (sorted, sampled against its
// link), and returns the deliveries due at or before now in canonical
// order plus the topology events that fired. dropped lists messages the
// network lost this barrier (after sampling), so callers can account
// lost intents (e.g. Kernel.NoteDroppedTrigger).
func (n *Network) Advance(now sim.Time) (deliveries, dropped []Message, topo []TopoEvent) {
	n.mu.Lock()
	defer n.mu.Unlock()

	topo = n.advanceTopoLocked(now, &dropped)

	// Ingest sends in canonical order.
	batch := n.batch[:0]
	for src := range n.pending {
		batch = append(batch, n.pending[src]...)
		n.pending[src] = n.pending[src][:0]
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].SentAt != batch[j].SentAt {
			return batch[i].SentAt < batch[j].SentAt
		}
		if batch[i].Src != batch[j].Src {
			return batch[i].Src < batch[j].Src
		}
		return batch[i].Seq < batch[j].Seq
	})
	for _, m := range batch {
		n.ingestLocked(now, m, &dropped, false)
	}
	clear(batch) // drop payload references until the next barrier
	n.batch = batch

	// Pop deliveries due.
	cut := 0
	for cut < len(n.inflight) && n.inflight[cut].DeliverAt <= now {
		cut++
	}
	if cut > 0 {
		deliveries = append(deliveries, n.inflight[:cut]...)
		n.inflight = n.inflight[:copy(n.inflight, n.inflight[cut:])]
		n.stats.Delivered += uint64(len(deliveries))
	}
	n.stats.Inflight = len(n.inflight)
	return deliveries, dropped, topo
}

// advanceTopoLocked applies partition starts and heals due at or before
// now, in schedule order with starts before heals at equal instants
// (a zero-length partition still cuts the messages in flight across it).
func (n *Network) advanceTopoLocked(now sim.Time, dropped *[]Message) []TopoEvent {
	var evs []TopoEvent
	for i := range n.parts {
		p := &n.parts[i]
		if !p.applied && p.at <= now {
			p.applied = true
			n.adjustCutLocked(p.side, +1)
			n.dropCutInflightLocked(dropped)
			evs = append(evs, TopoEvent{At: p.at, Cut: p.cut, Index: i})
		}
	}
	for i := range n.parts {
		p := &n.parts[i]
		if p.applied && !p.healed && p.until <= now {
			p.healed = true
			n.adjustCutLocked(p.side, -1)
			evs = append(evs, TopoEvent{At: p.until, Heal: true, Cut: p.cut, Index: i})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}

func (n *Network) adjustCutLocked(side []int, delta int) {
	member := make([]bool, n.cfg.Nodes)
	for _, s := range side {
		member[s] = true
	}
	for a := 0; a < n.cfg.Nodes; a++ {
		for b := 0; b < n.cfg.Nodes; b++ {
			if a != b && member[a] != member[b] {
				n.cutCount[a][b] += delta
			}
		}
	}
}

// dropCutInflightLocked discards in-flight messages whose link a freshly
// applied partition just severed — a cable cut takes the packets on the
// wire with it.
func (n *Network) dropCutInflightLocked(dropped *[]Message) {
	kept := n.inflight[:0]
	for _, m := range n.inflight {
		if n.cutCount[m.Src][m.Dst] > 0 {
			n.stats.Dropped++
			n.stats.PartitionDrops++
			*dropped = append(*dropped, m)
			continue
		}
		kept = append(kept, m)
	}
	n.inflight = kept
}

// ingestLocked samples one message against its directed link and either
// drops it or schedules its delivery (plus possibly a duplicate).
func (n *Network) ingestLocked(now sim.Time, m Message, dropped *[]Message, isDup bool) {
	if n.cutCount[m.Src][m.Dst] > 0 {
		n.stats.Dropped++
		n.stats.PartitionDrops++
		*dropped = append(*dropped, m)
		return
	}
	rng := n.rng[m.Src*n.cfg.Nodes+m.Dst]
	if n.cfg.DropProb > 0 && rng.Bool(n.cfg.DropProb) {
		n.stats.Dropped++
		n.stats.LossDrops++
		*dropped = append(*dropped, m)
		return
	}
	lat := sim.Duration(n.cfg.Latency)
	if n.cfg.Jitter > 0 {
		lat += sim.Duration(rng.Int63n(int64(n.cfg.Jitter)))
	}
	m.DeliverAt = m.SentAt.Add(lat)
	if m.DeliverAt <= now {
		// A send processed at the barrier that closes its window is due
		// no earlier than the next barrier (conservative bound).
		m.DeliverAt = now + 1
	}
	n.insertInflightLocked(m)
	if !isDup && n.cfg.DupProb > 0 && rng.Bool(n.cfg.DupProb) {
		n.stats.Duplicated++
		n.ingestLocked(now, m, dropped, true)
	}
}

func (n *Network) insertInflightLocked(m Message) {
	i := sort.Search(len(n.inflight), func(i int) bool {
		o := n.inflight[i]
		if o.DeliverAt != m.DeliverAt {
			return o.DeliverAt > m.DeliverAt
		}
		if o.Src != m.Src {
			return o.Src > m.Src
		}
		return o.Seq > m.Seq
	})
	n.inflight = append(n.inflight, Message{})
	copy(n.inflight[i+1:], n.inflight[i:])
	n.inflight[i] = m
}

// Stats returns the conservation ledger. At any barrier,
// Sent + Duplicated == Delivered + Dropped + Inflight + pending sends
// not yet ingested (zero at a barrier by construction).
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	s.Inflight = len(n.inflight)
	for _, q := range n.pending {
		s.Inflight += len(q)
	}
	return s
}

package obs

import (
	"fmt"
	"strings"
	"time"
)

// Snapshot is the stable-ordered metrics export of the plane: every
// slice order is committed — struct fields encode in declaration
// order, per-name slices (CPUs, Components, Mailboxes) sort by name,
// and per-kind counters (SpanKinds) and latency histograms (Latency)
// list in their canonical enum order, never map-iteration order — so
// two snapshots of the same state encode to byte-identical JSON. That
// stability is part of the API: exporters and the committed bench
// reports diff snapshots textually. It merges the plane's own counters
// with the bound kernel's task, CPU, and mailbox statistics.
type Snapshot struct {
	// AtNS is the simulated-clock timestamp in nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Level is the sampling level at snapshot time.
	Level string `json:"level"`
	// Node is the plane's federated identity ("" single-node).
	Node string `json:"node,omitempty"`
	// SpansEmitted is the lifetime span count; SpansRetained is how many
	// are still in the ring.
	SpansEmitted  uint64 `json:"spans_emitted"`
	SpansRetained int    `json:"spans_retained"`
	// Digest is the running span-stream digest.
	Digest string `json:"digest"`

	Resolve   ResolveStats   `json:"resolve"`
	Plan      PlanStats      `json:"plan"`
	Lifecycle LifecycleStats `json:"lifecycle"`
	Contract  ContractStats  `json:"contract"`
	Degrade   DegradeStats   `json:"degrade"`
	Supervise SuperviseStats `json:"supervise"`
	Cluster   ClusterStats   `json:"cluster"`
	Fault     FaultStats     `json:"fault"`
	Sched     SchedStats     `json:"sched"`
	// SpanKinds lists the non-zero per-kind span counters in the
	// committed canonical kind order (the Kind enum declaration order,
	// KindDeploy first) — never map-iteration order.
	SpanKinds []KindCount `json:"span_kinds,omitempty"`
	// Latency lists the non-empty latency histograms (p50/p95/p99 as
	// deterministic bucket upper bounds) in the committed canonical
	// LatencyKind order. Wall-clock values are machine-dependent; they
	// never enter any digest.
	Latency []LatencyStat `json:"latency,omitempty"`
	// FlightDumps is the number of retained flight-recorder dumps.
	FlightDumps int             `json:"flight_dumps,omitempty"`
	CPUs        []CPUStat       `json:"cpus,omitempty"`
	Components  []ComponentStat `json:"components,omitempty"`
	Mailboxes   []MailboxStat   `json:"mailboxes,omitempty"`
}

// KindCount is one span kind's lifetime emission count.
type KindCount struct {
	Kind  string `json:"kind"`
	Count uint64 `json:"count"`
}

// ResolveStats describe the incremental resolve engine.
type ResolveStats struct {
	// Drains counts Resolve entries that ran the worklist engine.
	Drains uint64 `json:"drains"`
	// Rounds counts resolution rounds (staged-cursor passes).
	Rounds uint64 `json:"rounds"`
	// MaxWorklistDepth is the largest staged candidate count seen.
	MaxWorklistDepth int64 `json:"max_worklist_depth"`
	// DepthSamples / DepthMean / DepthMax summarise the non-empty-round
	// depth series (sample count capped, extremes exact).
	DepthSamples int     `json:"depth_samples"`
	DepthMean    float64 `json:"depth_mean"`
	DepthMax     int64   `json:"depth_max"`
}

// PlanStats count composition-plan compilations: the typed-conflict
// checks and wiring previews (plans are never applied).
type PlanStats struct {
	// Compiles counts plan compilations.
	Compiles uint64 `json:"compiles"`
	// Deprecated: plans are no longer cached; CacheHits always reads 0.
	CacheHits uint64 `json:"cache_hits"`
	// Deprecated: plans are no longer applied; Applies always reads 0.
	Applies uint64 `json:"applies"`
	// Deprecated: with one deploy path nothing falls back; Fallbacks
	// always reads 0.
	Fallbacks uint64 `json:"fallbacks"`
}

// LifecycleStats count Figure 1 decisions.
type LifecycleStats struct {
	Deploys       uint64 `json:"deploys"`
	Transitions   uint64 `json:"transitions"`
	Activations   uint64 `json:"activations"`
	Deactivations uint64 `json:"deactivations"`
	Denials       uint64 `json:"denials"`
}

// ContractStats count contract-guard decisions.
type ContractStats struct {
	Violations  uint64 `json:"violations"`
	Revocations uint64 `json:"revocations"`
	Restores    uint64 `json:"restores"`
	Quarantines uint64 `json:"quarantines"`
}

// DegradeStats count service-mode transitions.
type DegradeStats struct {
	Downgrades uint64 `json:"downgrades"`
	Upgrades   uint64 `json:"upgrades"`
}

// SuperviseStats count restart-supervisor decisions.
type SuperviseStats struct {
	Restarts    uint64 `json:"restarts"`
	Escalations uint64 `json:"escalations"`
}

// ClusterStats count federation decisions (zero on single-node planes).
type ClusterStats struct {
	Sends      uint64 `json:"sends"`
	Recvs      uint64 `json:"recvs"`
	Migrations uint64 `json:"migrations"`
	Partitions uint64 `json:"partitions"`
	Heals      uint64 `json:"heals"`
	Placements uint64 `json:"placements"`
	NodeLosses uint64 `json:"node_losses"`
}

// FaultStats count injector activity.
type FaultStats struct {
	Injections uint64 `json:"injections"`
	Clears     uint64 `json:"clears"`
	Reapplies  uint64 `json:"reapplies"`
}

// SchedStats count bridged scheduler trace events (Full level only).
type SchedStats struct {
	Events uint64 `json:"events"`
}

// CPUStat is one CPU's declared admission load and consumed busy time.
type CPUStat struct {
	CPU int `json:"cpu"`
	// DeclaredLoad is the DRCR admission accumulator (fraction of 1.0).
	DeclaredLoad float64 `json:"declared_load"`
	// BusyNS is the kernel's consumed busy time in nanoseconds.
	BusyNS int64 `json:"busy_ns"`
}

// ComponentStat merges per-component plane counters with the kernel's
// live task counters for the component's task (if it has one).
type ComponentStat struct {
	Name        string `json:"name"`
	Transitions uint64 `json:"transitions"`
	Denials     uint64 `json:"denials"`
	Revocations uint64 `json:"revocations"`
	Violations  uint64 `json:"violations"`
	// Task counters: zero unless a kernel task with this name exists.
	Jobs           uint64 `json:"jobs"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	Skips          uint64 `json:"skips"`
	ConsumedNS     int64  `json:"consumed_ns"`
}

// MailboxStat is one mailbox's transfer counters; drops are the
// backpressure signal.
type MailboxStat struct {
	Name     string `json:"name"`
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
	Dropped  uint64 `json:"dropped"`
}

// Snapshot assembles the current metric state. Safe on a nil plane
// (returns an all-zero snapshot with level "off").
func (p *Plane) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{Level: Off.String()}
	}
	s := Snapshot{
		Level:         p.level.String(),
		SpansEmitted:  uint64(p.next),
		SpansRetained: int(min(p.next, p.capacity)),
		Digest:        p.Digest(),
		Resolve: ResolveStats{
			Drains:           p.c.resolveDrains,
			Rounds:           p.c.resolveRounds,
			MaxWorklistDepth: p.c.maxDepth,
			DepthSamples:     p.depth.Len(),
			DepthMean:        p.depth.Mean(),
			DepthMax:         p.depth.Max(),
		},
		Plan: PlanStats{Compiles: p.c.planCompiles},
		Lifecycle: LifecycleStats{
			Deploys:       p.perKind[KindDeploy],
			Transitions:   p.perKind[KindTransition],
			Activations:   p.c.activations,
			Deactivations: p.c.deactivations,
			Denials:       p.perKind[KindDeny],
		},
		Contract: ContractStats{
			Violations:  p.perKind[KindViolation],
			Revocations: p.perKind[KindRevoke],
			Restores:    p.perKind[KindRestore],
			Quarantines: p.perKind[KindQuarantine],
		},
		Degrade: DegradeStats{
			Downgrades: p.perKind[KindDowngrade],
			Upgrades:   p.perKind[KindUpgrade],
		},
		Supervise: SuperviseStats{
			Restarts:    p.perKind[KindRestart],
			Escalations: p.perKind[KindEscalate],
		},
		Cluster: ClusterStats{
			Sends:      p.perKind[KindSend],
			Recvs:      p.perKind[KindRecv],
			Migrations: p.perKind[KindMigrate],
			Partitions: p.perKind[KindPartition],
			Heals:      p.perKind[KindHeal],
			Placements: p.perKind[KindPlace],
			NodeLosses: p.perKind[KindNodeLoss],
		},
		Fault: FaultStats{
			Injections: p.perKind[KindFaultInject],
			Clears:     p.perKind[KindFaultClear],
			Reapplies:  p.perKind[KindFaultReapply],
		},
		Sched: SchedStats{Events: p.perKind[KindSched]},
	}
	s.Node = p.node
	for k := 1; k < kindCount; k++ {
		if p.perKind[k] > 0 {
			s.SpanKinds = append(s.SpanKinds, KindCount{Kind: Kind(k).String(), Count: p.perKind[k]})
		}
	}
	s.Latency = p.LatencyStats()
	s.FlightDumps = len(p.frDumps)

	var load []float64
	if p.loadFn != nil {
		load = p.loadFn()
	}
	if p.kernel != nil {
		s.AtNS = int64(p.kernel.Now())
		for cpu := 0; cpu < p.kernel.NumCPUs(); cpu++ {
			st := CPUStat{CPU: cpu}
			if cpu < len(load) {
				st.DeclaredLoad = load[cpu]
			}
			if busy, err := p.kernel.BusyTime(cpu); err == nil {
				st.BusyNS = int64(busy)
			}
			s.CPUs = append(s.CPUs, st)
		}
	} else {
		for cpu, l := range load {
			s.CPUs = append(s.CPUs, CPUStat{CPU: cpu, DeclaredLoad: l})
		}
	}

	if len(p.compNames) > 0 {
		s.Components = make([]ComponentStat, 0, len(p.compNames))
	}
	for _, name := range p.compNames {
		cc := p.perComp[name]
		st := ComponentStat{
			Name:        name,
			Transitions: cc.transitions,
			Denials:     cc.denials,
			Revocations: cc.revocations,
			Violations:  cc.violations,
		}
		if p.kernel != nil {
			if task, ok := p.kernel.Task(name); ok {
				m := task.Metrics()
				st.Jobs, st.DeadlineMisses, st.Skips = m.Jobs, m.Misses, m.Skips
				st.ConsumedNS = int64(m.Consumed)
			}
		}
		s.Components = append(s.Components, st)
	}

	if p.kernel != nil {
		_, boxes := p.kernel.IPC().Names()
		for _, name := range boxes {
			mb, err := p.kernel.IPC().Mailbox(name)
			if err != nil {
				continue
			}
			sent, received, dropped := mb.Stats()
			s.Mailboxes = append(s.Mailboxes, MailboxStat{
				Name: name, Sent: sent, Received: received, Dropped: dropped,
			})
		}
	}
	return s
}

// Format renders the snapshot as the console `metrics` table.
func (s Snapshot) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "observability @ %v (level %s)\n", time.Duration(s.AtNS), s.Level)
	fmt.Fprintf(&b, "  spans:     %d emitted, %d retained\n", s.SpansEmitted, s.SpansRetained)
	fmt.Fprintf(&b, "  resolve:   %d drains, %d rounds, max depth %d (mean %.1f over %d non-empty)\n",
		s.Resolve.Drains, s.Resolve.Rounds, s.Resolve.MaxWorklistDepth,
		s.Resolve.DepthMean, s.Resolve.DepthSamples)
	if s.Plan.Compiles > 0 {
		fmt.Fprintf(&b, "  plans:     %d compiled\n", s.Plan.Compiles)
	}
	fmt.Fprintf(&b, "  lifecycle: %d deploys, %d transitions, %d act, %d deact, %d denied\n",
		s.Lifecycle.Deploys, s.Lifecycle.Transitions, s.Lifecycle.Activations,
		s.Lifecycle.Deactivations, s.Lifecycle.Denials)
	fmt.Fprintf(&b, "  contract:  %d violations, %d revocations, %d restores, %d quarantines\n",
		s.Contract.Violations, s.Contract.Revocations, s.Contract.Restores, s.Contract.Quarantines)
	if s.Degrade.Downgrades > 0 || s.Degrade.Upgrades > 0 {
		fmt.Fprintf(&b, "  degrade:   %d downgrades, %d upgrades\n",
			s.Degrade.Downgrades, s.Degrade.Upgrades)
	}
	if s.Supervise.Restarts > 0 || s.Supervise.Escalations > 0 {
		fmt.Fprintf(&b, "  supervise: %d restarts, %d escalations\n",
			s.Supervise.Restarts, s.Supervise.Escalations)
	}
	if s.Cluster.Sends > 0 || s.Cluster.Recvs > 0 || s.Cluster.Partitions > 0 {
		fmt.Fprintf(&b, "  cluster:   %d sends, %d recvs, %d migrations, %d partitions, %d heals, %d placements, %d node losses\n",
			s.Cluster.Sends, s.Cluster.Recvs, s.Cluster.Migrations,
			s.Cluster.Partitions, s.Cluster.Heals, s.Cluster.Placements, s.Cluster.NodeLosses)
	}
	fmt.Fprintf(&b, "  fault:     %d injected, %d cleared, %d reapplied\n",
		s.Fault.Injections, s.Fault.Clears, s.Fault.Reapplies)
	if s.Sched.Events > 0 {
		fmt.Fprintf(&b, "  sched:     %d bridged events\n", s.Sched.Events)
	}
	for _, l := range s.Latency {
		fmt.Fprintf(&b, "  lat %-18s n=%-6d p50 %v p95 %v p99 %v max %v\n",
			l.Name, l.Count, time.Duration(l.P50NS), time.Duration(l.P95NS),
			time.Duration(l.P99NS), time.Duration(l.MaxNS))
	}
	if s.FlightDumps > 0 {
		fmt.Fprintf(&b, "  flightrec: %d dumps\n", s.FlightDumps)
	}
	for _, c := range s.CPUs {
		fmt.Fprintf(&b, "  cpu%d:      %3.0f%% declared, busy %v\n",
			c.CPU, c.DeclaredLoad*100, time.Duration(c.BusyNS))
	}
	if len(s.Components) > 0 {
		fmt.Fprintf(&b, "  %-12s %6s %6s %6s %6s %8s %7s\n",
			"component", "trans", "deny", "revoke", "viol", "jobs", "misses")
		for _, c := range s.Components {
			fmt.Fprintf(&b, "  %-12s %6d %6d %6d %6d %8d %7d\n",
				c.Name, c.Transitions, c.Denials, c.Revocations, c.Violations,
				c.Jobs, c.DeadlineMisses)
		}
	}
	for _, m := range s.Mailboxes {
		fmt.Fprintf(&b, "  mbx %-10s sent %d recv %d dropped %d\n",
			m.Name, m.Sent, m.Received, m.Dropped)
	}
	return b.String()
}

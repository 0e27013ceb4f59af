// Package obs is the DRCom observability plane: a deterministic,
// allocation-disciplined causal lifecycle tracer plus a metrics registry,
// surfaced to applications through the read-only Observer — the
// introspective half of the paper's DRCR management interface.
//
// Every DRCR decision (deploy, resolve round, admit/deny,
// activate/deactivate, revoke/restore, quarantine, violation, fault
// application) is emitted as a typed Span carrying the sim-clock
// timestamp, the component, and the *cause* span ID — which violation
// triggered the revoke, which provider transition cascaded a dependant
// down — so a whole reaction chain reconstructs as a tree. Spans live in
// a fixed ring buffer indexed by span ID; one incremental SHA-256
// digest (Digest) pins the lifecycle stream, span IDs and cause edges
// included, so two runs of one seeded workload at one sampling level
// must agree byte for byte.
//
// The plane is not safe for concurrent use, exactly like the simulated
// kernel: the whole simulation is single-threaded by design.
package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"slices"
	"strconv"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Level is the sampling level of the plane.
type Level int

// Sampling levels. The zero value is the default: every DRCR decision is
// traced, but per-round resolve internals and the scheduler bridge stay
// off so the resolve and sim hot paths remain allocation-free.
const (
	// Sampled traces every lifecycle decision (deploys, transitions,
	// denials, revocations, violations, faults) and keeps subsystem
	// counters, but emits no per-round or per-dispatch spans.
	Sampled Level = iota
	// Off disables the plane entirely.
	Off
	// Full adds resolve-round spans and bridges the kernel's scheduler
	// trace (release/dispatch/preempt/...) into the span stream.
	Full
)

func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Sampled:
		return "sampled"
	case Full:
		return "full"
	default:
		return "Level(" + strconv.Itoa(int(l)) + ")"
	}
}

// SpanID identifies one span; IDs are dense, starting at 1. Zero means
// "no span" (no cause, unknown component).
type SpanID uint64

// Kind is the span type.
type Kind uint8

// Span kinds, one per DRCR decision class.
const (
	KindDeploy Kind = iota + 1
	KindTransition
	KindDeny
	KindRevoke
	KindRestore
	KindViolation
	KindQuarantine
	KindFaultInject
	KindFaultClear
	KindFaultReapply
	KindResolveRound
	KindSched
	KindDowngrade
	KindUpgrade
	KindRestart
	KindEscalate
	// Federation kinds (package cluster): cross-node message traffic,
	// placement and migration decisions, and network topology changes.
	KindSend
	KindRecv
	KindMigrate
	KindPartition
	KindHeal
	KindPlace
	KindNodeLoss
	// Stochastic-contract kinds: Monte-Carlo admission verdicts for
	// distribution-valued budgets, and predictive-guard miss forecasts.
	// Appended after the federation kinds so legacy digests are
	// untouched; neither is emitted on constant-budget paths.
	KindAdmit
	KindForecast
)

// kindNames is the static name table; String must stay allocation-free
// for every defined kind (the scheduler bridge calls it per event).
var kindNames = [...]string{
	KindDeploy:       "deploy",
	KindTransition:   "transition",
	KindDeny:         "deny",
	KindRevoke:       "revoke",
	KindRestore:      "restore",
	KindViolation:    "violation",
	KindQuarantine:   "quarantine",
	KindFaultInject:  "fault-inject",
	KindFaultClear:   "fault-clear",
	KindFaultReapply: "fault-reapply",
	KindResolveRound: "resolve-round",
	KindSched:        "sched",
	KindDowngrade:    "downgrade",
	KindUpgrade:      "upgrade",
	KindRestart:      "restart",
	KindEscalate:     "escalate",
	KindSend:         "send",
	KindRecv:         "recv",
	KindMigrate:      "migrate",
	KindPartition:    "partition",
	KindHeal:         "heal",
	KindPlace:        "place",
	KindNodeLoss:     "node-loss",
	KindAdmit:        "admit",
	KindForecast:     "forecast",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// Span is one traced DRCR decision.
type Span struct {
	// ID is the dense span identifier (1-based).
	ID SpanID
	// Cause is the span that triggered this one, or 0 for a root span
	// (an external operation).
	Cause SpanID
	// At is the simulated-clock timestamp.
	At sim.Time
	// Kind classifies the decision.
	Kind Kind
	// Component is the subject (component name, fault target, or task).
	Component string
	// From / To carry the lifecycle states of a transition, the fault or
	// violation kind, or the scheduler event name.
	From, To string
	// N is a kind-specific count: quarantine checks, worklist depth, or
	// the CPU of a scheduler event.
	N int64
	// Detail is the human-readable reason.
	Detail string
}

func (s Span) String() string {
	var b []byte
	b = append(b, '#')
	b = strconv.AppendUint(b, uint64(s.ID), 10)
	b = append(b, " ["...)
	b = append(b, s.At.String()...)
	b = append(b, "] "...)
	b = append(b, s.Kind.String()...)
	if s.Component != "" {
		b = append(b, ' ')
		b = append(b, s.Component...)
	}
	switch {
	case s.From != "" && s.To != "":
		b = append(b, ' ')
		b = append(b, s.From...)
		b = append(b, "->"...)
		b = append(b, s.To...)
	case s.To != "":
		b = append(b, ' ')
		b = append(b, s.To...)
	}
	if s.Kind == KindQuarantine || s.Kind == KindResolveRound || s.Kind == KindRestart {
		b = append(b, " n="...)
		b = strconv.AppendInt(b, s.N, 10)
	}
	if s.Detail != "" {
		b = append(b, " ("...)
		b = append(b, s.Detail...)
		b = append(b, ')')
	}
	if s.Cause != 0 {
		b = append(b, " <- #"...)
		b = strconv.AppendUint(b, uint64(s.Cause), 10)
	}
	return string(b)
}

// Options parameterise a Plane.
type Options struct {
	// Level is the sampling level (zero value: Sampled).
	Level Level
	// Capacity is the span ring size (default 8192). Old spans are
	// evicted by ID; the running digest is unaffected by eviction.
	Capacity int
	// Node names the plane for federated span identity (Ref,
	// StitchedSpan); read it back with Plane.Node.
	Node string
}

// ringStart is the span ring's initial allocation; it grows by doubling
// up to Options.Capacity, so a plane that emits little stays small.
const ringStart = 64

// depthSampleCap bounds the worklist-depth series so pathological churn
// cannot grow it without bound; the min/max/mean of the first samples
// plus the running MaxWorklistDepth counter stay exact.
const depthSampleCap = 4096

// Plane is the observability plane one DRCR emits into.
type Plane struct {
	level Level
	// ring holds span ID i at index (i-1) % capacity. It starts small and
	// doubles as spans arrive until it holds exactly capacity, then wraps;
	// retention is always reckoned against capacity, never len(ring).
	ring     []Span
	capacity SpanID
	next     SpanID // last assigned ID; emitted count

	causeDepth int
	causeStack [8]SpanID
	open       map[string]SpanID // open fault cause per target
	last       map[string]SpanID // latest span per component

	full    hash.Hash // digest over id|cause|at|kind|... (cause edges pinned)
	scratch []byte

	kernel *rtos.Kernel
	loadFn func() []float64

	c       counters
	perKind [kindCount]uint64
	perComp map[string]*compCounters
	// compNames holds perComp's keys in name order, inserted once when a
	// component is first seen (perComp never deletes), so Snapshot walks
	// it instead of collecting and sorting the keys on every call.
	compNames []string
	depth     metrics.Series

	// Federated identity and cross-node stitching (stitch.go).
	node   string
	rcause Ref
	remote map[SpanID]Ref

	// Latency histograms (latency.go); inline values, zero-alloc record.
	// latMu guards them: the DRCR records drain and deploy latencies
	// after releasing its lock, from concurrent management calls.
	latMu sync.Mutex
	lat   [latKinds]metrics.Log2Hist

	// Flight recorder (flightrec.go).
	frPre     int
	frPost    int
	frMax     int
	frDumps   []*FlightDump
	frPending []pendingDump
}

// kindCount sizes the per-kind counter array (kinds are 1-based).
const kindCount = int(KindForecast) + 1

// counters are the subsystem-level accumulators that are not span
// counts; every span kind is counted in perKind.
type counters struct {
	activations   uint64
	deactivations uint64
	resolveDrains uint64
	resolveRounds uint64
	maxDepth      int64
	planCompiles  uint64
}

// compCounters are the per-component metric accumulators.
type compCounters struct {
	transitions uint64
	denials     uint64
	revocations uint64
	violations  uint64
}

func (o *Options) applyDefaults() {
	if o.Capacity <= 0 {
		o.Capacity = 8192
	}
}

// NewPlane builds a plane.
func NewPlane(o Options) *Plane {
	o.applyDefaults()
	return &Plane{
		level:    o.Level,
		ring:     make([]Span, 0, min(ringStart, o.Capacity)),
		capacity: SpanID(o.Capacity),
		open:     map[string]SpanID{},
		last:     map[string]SpanID{},
		full:     sha256.New(),
		scratch:  make([]byte, 0, 256),
		perComp:  map[string]*compCounters{},
		node:     o.Node,
		frPre:    flightPre,
		frPost:   flightPost,
		frMax:    flightMax,
	}
}

// BindKernel attaches the plane to the kernel whose clock, tasks, CPUs
// and IPC registry metric snapshots read from. At Full level the
// kernel's scheduler trace is bridged into the span stream.
func (p *Plane) BindKernel(k *rtos.Kernel) {
	if p == nil {
		return
	}
	p.kernel = k
	p.syncKernelSink()
}

// SetLoadFunc installs the per-CPU declared-load source (the DRCR's
// admission accumulators) consulted at snapshot time.
func (p *Plane) SetLoadFunc(f func() []float64) {
	if p == nil {
		return
	}
	p.loadFn = f
}

func (p *Plane) syncKernelSink() {
	if p.kernel == nil {
		return
	}
	if p.level != Full {
		p.kernel.SetTraceSink(nil)
		return
	}
	p.kernel.SetTraceSink(p.schedSpan)
}

// schedSpan is the scheduler trace bridge (Full level only). It must be
// allocation-free after warm-up: the sim hot path runs through it.
func (p *Plane) schedSpan(at sim.Time, kind rtos.TraceEventKind, task string, cpu int) {
	p.emit(Span{At: at, Kind: KindSched, Component: task, To: kind.String(), N: int64(cpu)})
}

// enabled reports whether the plane records anything.
func (p *Plane) enabled() bool { return p != nil && p.level != Off }

// emit assigns the next ID, applies the ambient cause if none is set,
// stores the span in the ring, and folds it into the digest. Sched and
// resolve-round spans are excluded from the digest, so turning on Full
// adds no digest line of its own (its spans still consume IDs).
func (p *Plane) emit(s Span) SpanID {
	if s.Cause == 0 && p.causeDepth > 0 {
		s.Cause = p.causeStack[p.causeDepth-1]
	}
	p.next++
	s.ID = p.next
	if s.ID <= p.capacity {
		p.growRing()
		p.ring = append(p.ring, s)
	} else {
		p.ring[(s.ID-1)%p.capacity] = s
	}
	if s.Component != "" {
		p.last[s.Component] = s.ID
	}
	if int(s.Kind) < kindCount {
		p.perKind[s.Kind]++
	}
	if s.Cause == 0 && !p.rcause.IsZero() {
		p.linkRemote(s.ID, p.rcause)
	}
	if s.Kind != KindSched && s.Kind != KindResolveRound {
		p.digest(s)
	}
	if p.frMax > 0 {
		p.noteFlight(s)
	}
	return s.ID
}

// digest folds one span into the running hash without allocating: the
// id|cause| prefix and the span line are rendered with strconv appends
// into one reused scratch buffer and written once.
func (p *Plane) digest(s Span) {
	b := strconv.AppendUint(p.scratch[:0], uint64(s.ID), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, uint64(s.Cause), 10)
	b = append(b, '|')
	b = appendSpanLine(b, s)
	p.full.Write(b)
	p.scratch = b[:0]
}

// appendSpanLine renders the ID-free at|kind|component|from|to|n|detail
// line of a span, newline included: the digest prefixes it with the
// span's ID and cause, the stitched digest with its node.
func appendSpanLine(b []byte, s Span) []byte {
	b = strconv.AppendInt(b, int64(s.At), 10)
	b = append(b, '|')
	b = append(b, s.Kind.String()...)
	b = append(b, '|')
	b = append(b, s.Component...)
	b = append(b, '|')
	b = append(b, s.From...)
	b = append(b, '|')
	b = append(b, s.To...)
	b = append(b, '|')
	b = strconv.AppendInt(b, s.N, 10)
	b = append(b, '|')
	b = append(b, s.Detail...)
	return append(b, '\n')
}

// PushCause makes id the ambient cause: spans emitted without an
// explicit cause inherit it until the matching PopCause. Pushing 0
// shadows any outer cause (scoping an unrelated operation).
func (p *Plane) PushCause(id SpanID) {
	if !p.enabled() {
		return
	}
	if p.causeDepth < len(p.causeStack) {
		p.causeStack[p.causeDepth] = id
		p.causeDepth++
	}
}

// PopCause removes the innermost ambient cause.
func (p *Plane) PopCause() {
	if !p.enabled() {
		return
	}
	if p.causeDepth > 0 {
		p.causeDepth--
	}
}

// SetOpenCause records the span that opened a long-lived condition (a
// fault) against its target, so later consequences (violations) can name
// it as their cause.
func (p *Plane) SetOpenCause(target string, id SpanID) {
	if !p.enabled() || id == 0 {
		return
	}
	p.open[target] = id
}

// ClearOpenCause forgets the open condition on target.
func (p *Plane) ClearOpenCause(target string) {
	if p == nil {
		return
	}
	delete(p.open, target)
}

// OpenCause returns the span that opened the live condition on target,
// or 0.
func (p *Plane) OpenCause(target string) SpanID {
	if p == nil {
		return 0
	}
	return p.open[target]
}

// Deploy traces a component entering the DRCR.
func (p *Plane) Deploy(at sim.Time, component, to, reason string) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).transitions++
	return p.emit(Span{At: at, Kind: KindDeploy, Component: component, To: to, Detail: reason})
}

// Transition traces one Figure 1 state change. Activation and
// deactivation counters are derived from the state names.
func (p *Plane) Transition(at sim.Time, component, from, to, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).transitions++
	if to == "ACTIVE" && from == "SATISFIED" {
		p.c.activations++
	}
	admitted := func(s string) bool { return s == "ACTIVE" || s == "SUSPENDED" }
	if admitted(from) && !admitted(to) {
		p.c.deactivations++
	}
	return p.emit(Span{At: at, Kind: KindTransition, Cause: cause, Component: component, From: from, To: to, Detail: reason})
}

// Deny traces an admission denial.
func (p *Plane) Deny(at sim.Time, component, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).denials++
	return p.emit(Span{At: at, Kind: KindDeny, Cause: cause, Component: component, Detail: reason})
}

// Revoke traces a budget revocation.
func (p *Plane) Revoke(at sim.Time, component, reason string) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).revocations++
	return p.emit(Span{At: at, Kind: KindRevoke, Component: component, Detail: reason})
}

// Restore traces a budget restoration.
func (p *Plane) Restore(at sim.Time, component, reason string) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindRestore, Component: component, Detail: reason})
}

// Violation traces a detected contract violation.
func (p *Plane) Violation(at sim.Time, component, kind, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).violations++
	return p.emit(Span{At: at, Kind: KindViolation, Cause: cause, Component: component, To: kind, Detail: detail})
}

// Quarantine traces a component entering quarantine for n checks.
func (p *Plane) Quarantine(at sim.Time, component string, n int64, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindQuarantine, Cause: cause, Component: component, N: n})
}

// FaultInject traces a fault application.
func (p *Plane) FaultInject(at sim.Time, kind, target, detail string) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindFaultInject, Component: target, To: kind, Detail: detail})
}

// FaultClear traces a fault being lifted.
func (p *Plane) FaultClear(at sim.Time, kind, target, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindFaultClear, Cause: cause, Component: target, To: kind, Detail: detail})
}

// FaultReapply traces an open fault following its target into a fresh
// incarnation after re-admission.
func (p *Plane) FaultReapply(at sim.Time, kind, target, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindFaultReapply, Cause: cause, Component: target, To: kind, Detail: detail})
}

// Downgrade traces a component stepping down to a cheaper service mode,
// either at admission ("downgrade-before-deny") or under guard
// enforcement.
func (p *Plane) Downgrade(at sim.Time, component, from, to, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).transitions++
	return p.emit(Span{At: at, Kind: KindDowngrade, Cause: cause, Component: component, From: from, To: to, Detail: reason})
}

// Upgrade traces a degraded component being promoted back toward its
// full contract after capacity freed up.
func (p *Plane) Upgrade(at sim.Time, component, from, to, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).transitions++
	return p.emit(Span{At: at, Kind: KindUpgrade, Cause: cause, Component: component, From: from, To: to, Detail: reason})
}

// Restart traces a supervised restart; n is the restart count within the
// supervisor's current window.
func (p *Plane) Restart(at sim.Time, component string, n int64, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindRestart, Cause: cause, Component: component, N: n, Detail: reason})
}

// Escalate traces a supervisor escalating past a component's exhausted
// restart budget; target names the escalation scope (the bundle, or the
// component itself when it has no bundle to restart).
func (p *Plane) Escalate(at sim.Time, component, target, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindEscalate, Cause: cause, Component: component, To: target, Detail: reason})
}

// Send traces one cross-node control message leaving a node. component
// names the subject (a component or topic), from/to carry the node names.
func (p *Plane) Send(at sim.Time, component, fromNode, toNode, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindSend, Cause: cause, Component: component, From: fromNode, To: toNode, Detail: detail})
}

// Recv traces a cross-node control message arriving; its cause is the
// matching Send span, so Why-chains span the network hop.
func (p *Plane) Recv(at sim.Time, component, fromNode, toNode, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindRecv, Cause: cause, Component: component, From: fromNode, To: toNode, Detail: detail})
}

// Migrate traces a component moving between nodes.
func (p *Plane) Migrate(at sim.Time, component, fromNode, toNode, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	p.comp(component).transitions++
	return p.emit(Span{At: at, Kind: KindMigrate, Cause: cause, Component: component, From: fromNode, To: toNode, Detail: reason})
}

// Partition traces a network partition opening; component names the cut.
func (p *Plane) Partition(at sim.Time, cut, detail string) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindPartition, Component: cut, Detail: detail})
}

// Heal traces a partition healing; its cause is the Partition span.
func (p *Plane) Heal(at sim.Time, cut, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindHeal, Cause: cause, Component: cut, Detail: detail})
}

// Place traces a cluster-admission placement decision.
func (p *Plane) Place(at sim.Time, component, node, reason string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindPlace, Cause: cause, Component: component, To: node, Detail: reason})
}

// NodeLoss traces a failure detector declaring a node lost; n is the
// number of placements stranded on it.
func (p *Plane) NodeLoss(at sim.Time, node string, n int64, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindNodeLoss, Cause: cause, Component: node, N: n, Detail: detail})
}

// AdmitVerdict traces a Monte-Carlo admission verdict for a
// distribution-valued budget; mode names the admitted service mode and
// detail carries the probability estimate versus the declared p.
// Constant-budget admissions never emit this span, keeping legacy
// digests byte-identical.
func (p *Plane) AdmitVerdict(at sim.Time, component, mode, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindAdmit, Cause: cause, Component: component, To: mode, Detail: detail})
}

// Forecast traces the predictive guard projecting a contract miss: the
// estimator's predicted miss probability crossed the component's
// declared tolerance, so the guard acts before the hard violation.
// Why-chains hang the ensuing downgrade off this span.
func (p *Plane) Forecast(at sim.Time, component, detail string, cause SpanID) SpanID {
	if !p.enabled() {
		return 0
	}
	return p.emit(Span{At: at, Kind: KindForecast, Cause: cause, Component: component, Detail: detail})
}

// NoteDrain counts one worklist drain (one Resolve entry).
func (p *Plane) NoteDrain() {
	if !p.enabled() {
		return
	}
	p.c.resolveDrains++
}

// Plan-pipeline counters (counter-only, like NoteDrain: compiling a plan
// is a check, so its bookkeeping never enters the digests).

// NotePlanCompile counts one composition-plan compilation.
func (p *Plane) NotePlanCompile() {
	if !p.enabled() {
		return
	}
	p.c.planCompiles++
}

// ResolveRound records one resolution round over deact staged
// deactivation candidates and act staged activation candidates. The
// depth series samples only non-empty rounds (and is capped), keeping a
// steady-state resolve tick allocation-free; a span is emitted only at
// Full level.
func (p *Plane) ResolveRound(at sim.Time, deact, act int) {
	if !p.enabled() {
		return
	}
	p.c.resolveRounds++
	n := int64(deact + act)
	if n > 0 {
		if n > p.c.maxDepth {
			p.c.maxDepth = n
		}
		if p.depth.Len() < depthSampleCap {
			p.depth.Add(n)
		}
	}
	if p.level == Full {
		p.emit(Span{At: at, Kind: KindResolveRound, N: n})
	}
}

// comp returns the per-component counter cell, creating it on first use.
func (p *Plane) comp(name string) *compCounters {
	if cc := p.perComp[name]; cc != nil {
		return cc
	}
	return p.addComp(name)
}

// addComp creates the counter cell of a component seen for the first
// time and files its name in compNames.
func (p *Plane) addComp(name string) *compCounters {
	cc := &compCounters{}
	p.perComp[name] = cc
	i, _ := slices.BinarySearch(p.compNames, name)
	p.compNames = slices.Insert(p.compNames, i, name)
	return cc
}

// Emitted is the lifetime span count.
func (p *Plane) Emitted() uint64 {
	if p == nil {
		return 0
	}
	return uint64(p.next)
}

// NextID is the ID the next emitted span will get; use it with
// SpansSince to watch a window.
func (p *Plane) NextID() SpanID {
	if p == nil {
		return 1
	}
	return p.next + 1
}

// growRing makes room for one more span while the ring is filling:
// capacity doubles, capped at exactly the configured Capacity.
func (p *Plane) growRing() {
	if len(p.ring) < cap(p.ring) {
		return
	}
	grown := make([]Span, len(p.ring), min(2*SpanID(cap(p.ring)), p.capacity))
	copy(grown, p.ring)
	p.ring = grown
}

// retained reports whether span id is still in the ring.
func (p *Plane) retained(id SpanID) bool {
	return id != 0 && id <= p.next && id+p.capacity > p.next
}

// Span returns the span with the given ID if it is still retained in
// the ring.
func (p *Plane) Span(id SpanID) (Span, bool) {
	if p == nil || !p.retained(id) {
		return Span{}, false
	}
	return p.ring[(id-1)%p.capacity], true
}

// Spans copies every retained span, oldest first.
func (p *Plane) Spans() []Span {
	return p.SpansSince(1)
}

// SpansSince copies the retained spans with ID >= from, oldest first.
func (p *Plane) SpansSince(from SpanID) []Span {
	if p == nil || p.next == 0 {
		return nil
	}
	lo := SpanID(1)
	if p.next > p.capacity {
		lo = p.next - p.capacity + 1
	}
	if from > lo {
		lo = from
	}
	if lo > p.next {
		return nil
	}
	out := make([]Span, 0, p.next-lo+1)
	for id := lo; id <= p.next; id++ {
		out = append(out, p.ring[(id-1)%p.capacity])
	}
	return out
}

// Last returns the most recent span about a component.
func (p *Plane) Last(component string) (Span, bool) {
	if p == nil {
		return Span{}, false
	}
	id, ok := p.last[component]
	if !ok {
		return Span{}, false
	}
	return p.Span(id)
}

// Why reconstructs the causal chain ending at a component's latest span,
// newest first: [what happened, what caused it, what caused that, ...].
// The chain stops at a root span or when a cause has been evicted from
// the ring.
func (p *Plane) Why(component string) []Span {
	s, ok := p.Last(component)
	if !ok {
		return nil
	}
	chain := []Span{s}
	for len(chain) < 64 && s.Cause != 0 {
		c, ok := p.Span(s.Cause)
		if !ok {
			break
		}
		chain = append(chain, c)
		s = c
	}
	return chain
}

// Digest is the hex SHA-256 of the span stream including IDs and cause
// edges: two runs of the same seeded workload at the same sampling
// level must agree byte for byte. Sched and resolve-round spans are
// excluded from the fold, but they still consume IDs, so compare Digest
// values only across runs at one level (the golden fault-campaign
// digest is pinned at the default, Sampled).
func (p *Plane) Digest() string {
	if p == nil {
		return ""
	}
	return hex.EncodeToString(p.full.Sum(nil))
}

// Observer returns the read-only management view of the plane.
func (p *Plane) Observer() Observer { return Observer{p: p} }

// Observer is the read-only face of the plane — what System.Observer()
// hands to management clients (console commands, exporters).
type Observer struct{ p *Plane }

// Spans copies every retained span, oldest first.
func (o Observer) Spans() []Span { return o.p.Spans() }

// SpansSince copies retained spans with ID >= from.
func (o Observer) SpansSince(from SpanID) []Span { return o.p.SpansSince(from) }

// NextID is the ID the next span will get.
func (o Observer) NextID() SpanID { return o.p.NextID() }

// Span looks a span up by ID.
func (o Observer) Span(id SpanID) (Span, bool) { return o.p.Span(id) }

// Why reconstructs a component's causal chain, newest first.
func (o Observer) Why(component string) []Span { return o.p.Why(component) }

// Snapshot assembles the stable-ordered metrics snapshot.
func (o Observer) Snapshot() Snapshot { return o.p.Snapshot() }

// FlightDumps returns the retained flight-recorder dumps, oldest first.
func (o Observer) FlightDumps() []FlightDump { return o.p.FlightDumps() }

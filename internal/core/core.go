// Package core implements the DRCR — the Declarative Real-time Component
// Runtime of the paper (§2.2): the service that owns the lifecycle of
// every declarative real-time component, keeps an accurate global view of
// promised real-time contracts, resolves functional (port) and
// non-functional (admission) constraints, and adapts the running set when
// bundles and components come and go, without impairing the contracts of
// components that stay active.
//
// Components reach the DRCR in two ways: declared in bundle resources
// named by the DRCom-Components manifest header (parsed automatically
// when the bundle starts), or deployed directly through Deploy. Each
// activated component is realised as a hybrid real-time component
// (package hrc) on the simulated RTAI kernel (package rtos), and its
// management interface is published in the OSGi service registry under
// ManagementInterface, exactly as §2.4 describes.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/descriptor"
	"repro/internal/hrc"
	"repro/internal/ldap"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/plan"
	"repro/internal/policy"
	"repro/internal/rtos"
	"repro/internal/rtos/ipc"
	"repro/internal/sim"
)

// State is the DRCom component lifecycle state (the paper's Figure 1).
type State int

// Lifecycle states. External events move components between Disabled,
// Unsatisfied and Destroyed; the DRCR manages Unsatisfied ⇄ Satisfied ⇄
// Active automatically; Suspended is entered through the management
// interface while the contract (budget, ports) stays admitted.
const (
	Disabled State = iota + 1
	Unsatisfied
	Satisfied
	Active
	Suspended
	Destroyed
)

func (s State) String() string {
	switch s {
	case 0:
		return "NEW"
	case Disabled:
		return "DISABLED"
	case Unsatisfied:
		return "UNSATISFIED"
	case Satisfied:
		return "SATISFIED"
	case Active:
		return "ACTIVE"
	case Suspended:
		return "SUSPENDED"
	case Destroyed:
		return "DESTROYED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// legalTransitions is the exact transition relation of Figure 1; every
// state change the DRCR performs is checked against it.
var legalTransitions = map[State][]State{
	Disabled:    {Unsatisfied, Destroyed},
	Unsatisfied: {Satisfied, Disabled, Destroyed},
	Satisfied:   {Active, Unsatisfied, Disabled, Destroyed},
	Active:      {Suspended, Unsatisfied, Disabled, Destroyed},
	Suspended:   {Active, Unsatisfied, Disabled, Destroyed},
}

// CanTransition reports whether from → to is a legal Figure 1 move.
func CanTransition(from, to State) bool {
	for _, t := range legalTransitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// ManagementInterface is the registry interface name under which each
// active component's management service is published (§2.4).
const ManagementInterface = "drcom.Management"

// Management is the per-component management contract of §2.4: suspend,
// resume, get/set properties, and task status. Note init and uninit are
// deliberately not part of the interface — only the DRCR creates and
// destroys instances, or the global view would rot.
type Management interface {
	Suspend() error
	Resume() error
	SetProperty(key, value string) error
	Property(key string) (string, bool)
	Status() hrc.Status
}

// Compile-time proof that the hybrid component satisfies the management
// contract.
var _ Management = (*hrc.Component)(nil)

// BodyFactory builds the functional routine for a component, the stand-in
// for loading the descriptor's bincode class.
type BodyFactory func(c *descriptor.Component) rtos.Body

// Event records one lifecycle transition for diagnostics and the
// dynamicity experiments.
type Event struct {
	At        sim.Time
	Component string
	From, To  State
	Reason    string
}

func (e Event) String() string {
	return fmt.Sprintf("[%v] %s: %v -> %v (%s)", e.At, e.Component, e.From, e.To, e.Reason)
}

// waitKind classifies why a non-admitted component is waiting, so the
// worklist engine knows which events can change its fate: a port waiter
// needs a new provider of one of its inport topics, an admission waiter
// needs the admission view of its processor (or the resolver chain) to
// change, and an admitted component whose activation failed (an IPC or
// task name taken, possibly by a component on another processor) needs
// any admitted-set change.
type waitKind int

const (
	waitNone waitKind = iota
	waitPorts
	waitAdmission
	waitActivation
)

// Component is the DRCR's record of one declared component.
type Component struct {
	desc    *descriptor.Component
	bundle  *osgi.Bundle // nil for directly-deployed components
	state   State
	inst    *hrc.Component
	mgmtReg *osgi.ServiceRegistration
	// bindings maps inport name -> providing component name while active.
	bindings map[string]string
	// planBinds, when non-nil, holds the precompiled activation-moment
	// binding row (by InPorts index) the plan apply staged; activateLocked
	// consumes and clears it instead of querying the provider index.
	// planSpec is the matching preflight-validated task spec.
	planBinds []string
	planSpec  *rtos.TaskSpec
	// lastReason explains the most recent state decision.
	lastReason string
	// revoked bars the component from re-admission after a runtime
	// contract violation, until RestoreBudget clears it.
	revoked bool
	// ownedSHM / ownedBoxes are the IPC objects created for outports.
	ownedSHM   []string
	ownedBoxes []string

	// mode is the admitted service mode (0 = the full contract),
	// meaningful while Active/Suspended. promoHold bars best-effort
	// promotion back toward mode 0 until AllowPromotion clears it, so a
	// guard's backoff policy gates re-promotion. admitNote carries the
	// denial reason that forced a degraded admission, surfaced in the
	// downgrade span.
	mode      int
	promoHold bool
	admitNote string
	// admitVerdict carries the admitting decision's reason into
	// activation for components with distribution-valued budgets, where
	// it becomes the admit span's detail. Empty otherwise.
	admitVerdict string

	// wait records the last resolution failure mode (worklist engine).
	wait waitKind
	// lastSpan is the component's most recent observability span;
	// obsCause is the pending cause the next span should carry (set when
	// another component's transition dirties this one).
	lastSpan obs.SpanID
	obsCause obs.SpanID
	// Admission decision cache: valid while the drain, view epoch and
	// resolver-chain epoch all match. Scoped to a single drain because
	// customized resolving services may be stateful across Resolve calls
	// (the fault injector's flap resolver is), so reusing a decision from
	// an earlier Resolve would freeze their answer.
	cacheDrain      uint64
	cacheViewEpoch  uint64
	cacheChainEpoch uint64
	cachedDecision  policy.Decision
	cachedMode      int
	cacheValid      bool
}

// portKey identifies a port topic for index lookups: two ports with equal
// keys differ at most in size, which the index entries carry explicitly
// (§2.3: name+interface+type+size determine compatibility).
type portKey struct {
	name  string
	iface descriptor.PortInterface
	typ   ipc.ElemType
}

func keyOf(p descriptor.Port) portKey { return portKey{p.Name, p.Interface, p.Type} }

// portProv is one admitted provider of a port topic. It carries the
// full declared outport so the index answers compatibility queries
// (size plus the typed version/datatype rules) exactly like the
// reference scan over descriptors.
type portProv struct {
	name string
	port descriptor.Port
}

// Info is a read-only component snapshot.
type Info struct {
	Name       string
	State      State
	Kind       descriptor.TaskKind
	CPU        int
	Priority   int
	CPUUsage   float64
	Importance int
	Bundle     string // symbolic name, "" if directly deployed
	Bindings   map[string]string
	LastReason string
	// Revoked reports an outstanding budget revocation (contract
	// violation); the component cannot re-activate until restored.
	Revoked bool
	// Mode is the admitted service mode index (0 = full contract) and
	// ModeName its label; while degraded, CPUUsage above reflects the
	// admitted mode's declared budget, not the full contract's. Modes
	// lists the declared mode ladder including mode 0 (nil when the
	// component declares no degraded modes).
	Mode     int
	ModeName string
	Modes    []ModeInfo
	// OutPorts lists the component's declared outports (name and
	// transport), so external monitors can watch port freshness.
	OutPorts []PortInfo
	// BudgetDist is the declared stochastic budget in canonical dist
	// grammar ("" for constant-budget components) and BudgetP its
	// declared deadline-met probability.
	BudgetDist string
	BudgetP    float64
}

// ModeInfo is a read-only declared-mode snapshot with inherited fields
// resolved.
type ModeInfo struct {
	Name        string
	FrequencyHz float64
	CPUUsage    float64
	Drops       []string
}

// PortInfo is a read-only declared-port snapshot.
type PortInfo struct {
	Name      string
	Interface string
}

// Options configure a DRCR.
type Options struct {
	// Internal is the DRCR's built-in resolving service; defaults to
	// policy.Utilization{} (enforce declared budgets, bound 1.0).
	Internal policy.Resolver
	// ExecJitter is the fractional execution-time jitter given to
	// component tasks; defaults to 0.05.
	ExecJitter float64
	// DefaultAperiodicCost is the simulated cost of an aperiodic job;
	// defaults to 10µs.
	DefaultAperiodicCost time.Duration
	// FullSweepResolve selects the reference fixed-point full-sweep
	// resolution engine instead of the incremental worklist engine. It
	// exists for differential testing and benchmarking only: both engines
	// must produce identical lifecycle outcomes, which the differential
	// churn tests pin.
	FullSweepResolve bool
	// Obs is the observability plane every DRCR decision is traced into;
	// defaults to a fresh plane at the Sampled level.
	Obs *obs.Plane
	// DisablePlanFastPath routes every bundle/batch deploy through the
	// per-descriptor event path even when a compiled composition plan
	// could be fast-applied. It exists for differential testing and
	// benchmarking: both paths must produce identical lifecycle outcomes,
	// which the plan differential tests pin.
	DisablePlanFastPath bool
	// Shards stripes the lifecycle surface by dependency cone (see
	// cones.go): operations on independent cones run concurrently, each
	// holding its cone's stripe through mutation plus the resolution it
	// triggers; whole-table operations (Resolve, bundle events, Close)
	// take every stripe. 0 or 1 disables striping — the runtime mutex
	// alone serialises, exactly the pre-sharding behaviour. With
	// striping on, event listeners must not call lifecycle operations
	// inline; schedule them on the kernel clock instead.
	Shards int
}

func (o *Options) applyDefaults() {
	if o.Internal == nil {
		o.Internal = policy.Utilization{}
	}
	if o.ExecJitter == 0 {
		o.ExecJitter = 0.05
	}
	if o.ExecJitter < 0 {
		o.ExecJitter = 0
	}
	if o.DefaultAperiodicCost <= 0 {
		o.DefaultAperiodicCost = 10 * time.Microsecond
	}
	if o.Obs == nil {
		o.Obs = obs.NewPlane(obs.Options{})
	}
}

// DRCR is the declarative real-time component runtime.
type DRCR struct {
	mu    sync.Mutex
	cones *coneLocks // cone-striped op locking; nil unless Options.Shards > 1

	fw     *osgi.Framework
	kernel *rtos.Kernel
	opts   Options
	obs    *obs.Plane

	comps     map[string]*Component
	factories map[string]BodyFactory

	// planCache holds compiled composition plans keyed by descriptor-set
	// digest, so redeploys and cluster-shipped batches skip compilation.
	// Replaceable via SetPlanCache (a cluster shares one across nodes).
	planCache *plan.Cache

	// cpus holds each processor's admission state (cpuAdmission);
	// cpuLoad is the matching per-CPU summed declared budget, re-summed
	// lazily for processors flagged loadStale. stochAdmitted counts the
	// admitted distribution-valued contracts behind View.Stochastic.
	cpus          []cpuAdmission
	cpuLoad       []float64
	stochAdmitted int

	// allNames is the sorted name list of every managed component,
	// maintained incrementally on deploy/destroy so the reference full
	// sweep never re-sorts. namesScratch / admittedScratch are the reused
	// snapshot buffers its passes iterate (snapshots are required: event
	// listeners run unlocked and may mutate the component set).
	allNames        []string
	namesScratch    []string
	admittedScratch []string

	// provIndex maps a port topic to its admitted providers (sorted by
	// name, so provider choice matches the reference scan over the
	// name-sorted admitted set). consIndex maps a topic to every managed
	// component declaring an inport on it, admitted or not — the reverse
	// dependency edges the worklist engine cascades along.
	provIndex map[portKey][]portProv
	consIndex map[portKey][]string

	// remoteProv / remoteCons are the federation indexes (remote.go):
	// topics provided by admitted components on other cluster nodes
	// (consulted by both resolve engines after the local admitted set)
	// and topics components here export to other nodes.
	remoteProv map[portKey][]remoteEntry
	remoteCons map[portKey][]string

	// viewEpoch counts admitted-set changes on any processor; viewSnap is
	// the immutable snapshot shared by every consult at that epoch.
	viewEpoch     uint64
	viewSnap      policy.View
	viewSnapEpoch uint64
	viewSnapValid bool

	// waiting tracks every Unsatisfied/Satisfied component. actPending /
	// deactPending are the sorted dirty-component staging worklists,
	// actRound / deactRound the reused buffers the phases sweep; the
	// drain* fields remember the epochs the last waiter synchronisation
	// ran against (drainCPUEpoch: each processor's cpuAdmission.epoch).
	waiting map[string]*Component
	// degraded is the sorted name list of admitted components running
	// below mode 0; the best-effort promotion pass walks it only when
	// non-empty, keeping the steady state allocation-free.
	degraded        []string
	feasModes       []int
	actPending      []string
	actMember       map[string]bool
	actRound        []string
	deactPending    []string
	deactMember     map[string]bool
	deactRound      []string
	drainID         uint64
	drainViewEpoch  uint64
	drainChainEpoch uint64
	drainCPUEpoch   []uint64
	// rearmPartial is set by a waiter synchronisation that re-armed only
	// the waiters of moved processors, and cleared once the activation
	// round it fed has run (see tryActivateLocked).
	rearmPartial bool

	// Resolver-chain cache: rebuilt only when a drcom.ResolvingService
	// registry event fires, instead of on every consult.
	chainDirty atomic.Bool
	chainEpoch atomic.Uint64
	chainMu    sync.Mutex
	chain      policy.Chain
	chainLocal bool // policy.IsCPULocal(chain), under chainMu

	events    []Event
	listeners []func(Event)

	removeBundleListener  func()
	removeServiceListener func()
	resolving             bool
	dirty                 bool
	closed                bool
}

// New attaches a DRCR to a framework and kernel. The DRCR immediately
// starts listening for bundle lifecycle events.
func New(fw *osgi.Framework, kernel *rtos.Kernel, opts Options) (*DRCR, error) {
	if fw == nil || kernel == nil {
		return nil, errors.New("core: DRCR needs a framework and a kernel")
	}
	opts.applyDefaults()
	d := &DRCR{
		fw:          fw,
		kernel:      kernel,
		opts:        opts,
		obs:         opts.Obs,
		comps:       map[string]*Component{},
		factories:   map[string]BodyFactory{},
		planCache:   plan.NewCache(),
		provIndex:   map[portKey][]portProv{},
		consIndex:   map[portKey][]string{},
		waiting:     map[string]*Component{},
		actMember:   map[string]bool{},
		deactMember: map[string]bool{},
	}
	d.cpus = make([]cpuAdmission, kernel.NumCPUs())
	d.cpuLoad = make([]float64, kernel.NumCPUs())
	d.drainCPUEpoch = make([]uint64, kernel.NumCPUs())
	d.cones = newConeLocks(kernel.NumCPUs(), opts.Shards)
	d.obs.BindKernel(kernel)
	d.obs.SetLoadFunc(d.declaredLoad)
	d.chainDirty.Store(true) // build the resolver chain on first consult
	d.removeBundleListener = fw.AddBundleListener(osgi.BundleListenerFunc(d.bundleChanged))
	// Resolver registrations/removals invalidate the cached chain. The
	// listener only flips an atomic flag: it may fire while d.mu is held
	// (the DRCR itself registers management services during activation).
	resolverFilter := ldap.MustParse("(" + osgi.PropObjectClass + "=" + policy.ServiceInterface + ")")
	d.removeServiceListener = fw.AddServiceListener(osgi.ServiceListenerFunc(func(osgi.ServiceEvent) {
		d.chainDirty.Store(true)
	}), resolverFilter)
	return d, nil
}

// Kernel returns the RT kernel the DRCR drives.
func (d *DRCR) Kernel() *rtos.Kernel { return d.kernel }

// Obs returns the observability plane the DRCR emits into. Subsystems
// reacting to DRCR state (the contract guard, the fault injector) trace
// their own decisions through it so causal chains span subsystems.
func (d *DRCR) Obs() *obs.Plane { return d.obs }

// Observer returns the read-only management view of the plane.
func (d *DRCR) Observer() obs.Observer { return d.obs.Observer() }

// declaredLoad snapshots the per-CPU admission accumulators for metric
// snapshots.
func (d *DRCR) declaredLoad() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]float64, d.kernel.NumCPUs())
	copy(out, d.loadLocked())
	return out
}

// takeCause consumes a component's pending span cause.
func (d *DRCR) takeCause(c *Component) obs.SpanID {
	id := c.obsCause
	c.obsCause = 0
	return id
}

// noteDenyLocked records an admission denial. A deny span is emitted
// only when the reason changed — the full-sweep engine re-consults every
// waiting component each pass while the worklist engine re-consults only
// when something dirtied it, and deduplication makes the two span
// streams identical.
func (d *DRCR) noteDenyLocked(c *Component, reason string) {
	cause := d.takeCause(c)
	if reason != c.lastReason {
		c.lastSpan = d.obs.Deny(d.kernel.Now(), c.desc.Name, reason, cause)
	}
	c.lastReason = reason
}

// Framework returns the owning framework.
func (d *DRCR) Framework() *osgi.Framework { return d.fw }

// RegisterBody associates a descriptor bincode with a functional routine
// factory. Components without a registered body still activate — their
// tasks consume their declared budget but perform no data flow.
func (d *DRCR) RegisterBody(bincode string, f BodyFactory) error {
	if bincode == "" || f == nil {
		return errors.New("core: RegisterBody needs a bincode and a factory")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.factories[bincode]; dup {
		return fmt.Errorf("core: body for %q already registered", bincode)
	}
	d.factories[bincode] = f
	return nil
}

// AddListener subscribes to lifecycle events; the returned function
// unsubscribes.
func (d *DRCR) AddListener(f func(Event)) (remove func()) {
	if f == nil {
		return func() {}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.listeners = append(d.listeners, f)
	idx := len(d.listeners) - 1
	return func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		if idx < len(d.listeners) {
			d.listeners[idx] = nil
		}
	}
}

// Events returns a copy of the lifecycle event log.
func (d *DRCR) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Event, len(d.events))
	copy(out, d.events)
	return out
}

// ClearEvents empties the event log.
func (d *DRCR) ClearEvents() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.events = d.events[:0]
}

// Component returns a snapshot of the named component.
func (d *DRCR) Component(name string) (Info, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.comps[name]
	if !ok {
		return Info{}, false
	}
	return d.infoLocked(c), true
}

// Components lists snapshots of all managed components, sorted by name.
func (d *DRCR) Components() []Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Info, 0, len(d.comps))
	for _, c := range d.comps {
		out = append(out, d.infoLocked(c))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (d *DRCR) infoLocked(c *Component) Info {
	info := Info{
		Name:       c.desc.Name,
		State:      c.state,
		Kind:       c.desc.Kind,
		CPU:        c.desc.CPU(),
		Priority:   c.desc.Priority(),
		CPUUsage:   c.desc.CPUUsage,
		Importance: c.desc.Importance,
		LastReason: c.lastReason,
		Revoked:    c.revoked,
		Mode:       c.mode,
		ModeName:   c.desc.ModeName(c.mode),
		Bindings:   map[string]string{},
	}
	if c.mode > 0 {
		info.CPUUsage = c.desc.ModeSpec(c.mode).CPUUsage
	}
	if n := c.desc.NumModes(); n > 1 {
		info.Modes = make([]ModeInfo, n)
		for i := 0; i < n; i++ {
			m := c.desc.ModeSpec(i)
			info.Modes[i] = ModeInfo{Name: m.Name, FrequencyHz: m.FrequencyHz, CPUUsage: m.CPUUsage, Drops: m.Drops}
		}
	}
	if c.bundle != nil {
		info.Bundle = c.bundle.SymbolicName()
	}
	if c.desc.Budget != nil {
		info.BudgetDist = c.desc.Budget.String()
		info.BudgetP = c.desc.BudgetP
	}
	for _, out := range c.desc.OutPorts {
		info.OutPorts = append(info.OutPorts, PortInfo{Name: out.Name, Interface: string(out.Interface)})
	}
	for k, v := range c.bindings {
		info.Bindings[k] = v
	}
	return info
}

// Management returns the live management service of an active component.
func (d *DRCR) Management(name string) (Management, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.comps[name]
	if !ok || c.inst == nil {
		return nil, false
	}
	return c.inst, true
}

// GlobalView assembles the admission view over currently admitted
// (Active or Suspended) components — the DRCR's accurate global picture
// of promised contracts. The returned snapshot is immutable and shared:
// treat it as read-only (resolvers must anyway, per policy.Resolver).
func (d *DRCR) GlobalView() policy.View {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.viewLocked()
}

// viewLocked returns the admission snapshot for the current view epoch.
// It is rebuilt only when some processor's admitted set changed since
// the last call, and then re-copies only those processors' contract
// lists: every other list is shared with the previous snapshot (lists
// are never mutated once handed out, and OnCPU caps them so appends
// copy).
func (d *DRCR) viewLocked() policy.View {
	if d.viewSnapValid && d.viewSnapEpoch == d.viewEpoch {
		return d.viewSnap
	}
	per := make([][]policy.Contract, len(d.cpus))
	for i := range d.cpus {
		ca := &d.cpus[i]
		if ca.snapStale {
			ca.snap = nil
			if len(ca.admitted) > 0 {
				ca.snap = append([]policy.Contract(nil), ca.admitted...)
			}
			ca.snapStale = false
		}
		per[i] = ca.snap
	}
	v := policy.NewViewPerCPU(len(d.cpus), per)
	v.Epoch = d.viewEpoch
	v.Stochastic = d.stochAdmitted > 0
	v.CPULoad = append([]float64(nil), d.loadLocked()...)
	d.viewSnap = v
	d.viewSnapEpoch = d.viewEpoch
	d.viewSnapValid = true
	return v
}

// admittedSet reports whether a state counts into the admission view.
func admittedSet(s State) bool { return s == Active || s == Suspended }

// noteTransitionLocked keeps the incremental admission view in sync with a
// component's from → to move.
func (d *DRCR) noteTransitionLocked(c *Component, from, to State) {
	was, is := admittedSet(from), admittedSet(to)
	if was == is {
		return
	}
	name := c.desc.Name
	if is {
		d.admitContractLocked(contractAt(c.desc, c.mode))
		if c.mode > 0 {
			d.degraded = insertName(d.degraded, name)
		}
	} else {
		if !d.withdrawContractLocked(c.desc.CPU(), name) {
			return // not tracked; nothing to withdraw
		}
		if len(d.degraded) > 0 {
			d.degraded = removeName(d.degraded, name)
		}
	}
	d.viewEpoch++
	// Keep the provider index exactly the outports of the admitted set.
	for _, out := range c.desc.OutPorts {
		key := keyOf(out)
		if is {
			d.provIndex[key] = insertProv(d.provIndex[key], portProv{name: name, port: out})
		} else {
			d.provIndex[key] = removeProv(d.provIndex[key], name)
		}
	}
}

func insertProv(ps []portProv, p portProv) []portProv {
	i := sort.Search(len(ps), func(i int) bool { return ps[i].name >= p.name })
	if i < len(ps) && ps[i].name == p.name {
		ps[i] = p
		return ps
	}
	ps = append(ps, portProv{})
	copy(ps[i+1:], ps[i:])
	ps[i] = p
	return ps
}

func removeProv(ps []portProv, name string) []portProv {
	i := sort.Search(len(ps), func(i int) bool { return ps[i].name >= name })
	if i >= len(ps) || ps[i].name != name {
		return ps
	}
	return append(ps[:i], ps[i+1:]...)
}

func insertName(ns []string, name string) []string {
	i := sort.SearchStrings(ns, name)
	if i < len(ns) && ns[i] == name {
		return ns
	}
	ns = append(ns, "")
	copy(ns[i+1:], ns[i:])
	ns[i] = name
	return ns
}

// mergeNames merges a sorted batch of new names into a sorted list —
// the single-pass equivalent of insertName once per element. Callers
// guarantee the batch is disjoint from dst (the plan install loop skips
// duplicates against the component table, which dst mirrors).
func mergeNames(dst, add []string) []string {
	if len(add) == 0 {
		return dst
	}
	if len(dst) == 0 || dst[len(dst)-1] < add[0] {
		return append(dst, add...)
	}
	out := make([]string, 0, len(dst)+len(add))
	i, j := 0, 0
	for i < len(dst) && j < len(add) {
		if dst[i] <= add[j] {
			out = append(out, dst[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, dst[i:]...)
	out = append(out, add[j:]...)
	return out
}

func removeName(ns []string, name string) []string {
	i := sort.SearchStrings(ns, name)
	if i >= len(ns) || ns[i] != name {
		return ns
	}
	return append(ns[:i], ns[i+1:]...)
}

// loadLocked returns the per-CPU accumulators, re-summing any stale CPU
// in name order first: a change on one CPU leaves every other CPU's
// contract sequence, and so its sum, bit-for-bit untouched, and a
// whole-bundle deploy pays one re-sum per CPU instead of one per
// admission.
func (d *DRCR) loadLocked() []float64 {
	for i := range d.cpus {
		ca := &d.cpus[i]
		if !ca.loadStale {
			continue
		}
		var sum float64
		for j := range ca.admitted {
			sum += ca.admitted[j].CPUUsage
		}
		d.cpuLoad[i] = sum
		ca.loadStale = false
	}
	return d.cpuLoad
}

func contractOf(desc *descriptor.Component) policy.Contract {
	ct := policy.Contract{
		Name:       desc.Name,
		CPU:        desc.CPU(),
		Priority:   desc.Priority(),
		CPUUsage:   desc.CPUUsage,
		Importance: desc.Importance,
		Budget:     desc.Budget,
		MetP:       desc.BudgetP,
	}
	if desc.Periodic != nil {
		ct.Period = desc.Periodic.Period()
	}
	return ct
}

// contractAt is the contract a component promises in service mode m:
// contractOf for mode 0, the mode's declared budget and rate otherwise.
// Degraded modes promise their constant declared budget — the
// distribution refines only the full contract, so stepping down always
// shrinks the admission question.
func contractAt(desc *descriptor.Component, mode int) policy.Contract {
	ct := contractOf(desc)
	if mode > 0 {
		m := desc.ModeSpec(mode)
		ct.CPUUsage = m.CPUUsage
		ct.Budget = nil
		ct.MetP = 0
		if desc.Periodic != nil {
			ct.Period = m.Period()
		}
	}
	return ct
}

// sortedNamesLocked snapshots the incrementally-maintained sorted name
// list into a reused scratch buffer (safe against listener callbacks
// mutating the component set while a sweep iterates it unlocked).
func (d *DRCR) sortedNamesLocked() []string {
	d.namesScratch = append(d.namesScratch[:0], d.allNames...)
	return d.namesScratch
}

// Close detaches the DRCR from framework events and destroys every
// component.
func (d *DRCR) Close() {
	t := d.cones.lockAll()
	defer d.cones.unlock(t)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	d.removeBundleListener()
	d.removeServiceListener()
	// Bulk teardown: every component is going away, so cascading through
	// resolution after each removal (quadratic-to-cubic at container
	// scale) would only recompute states that are about to be destroyed.
	// Deactivate and destroy each record directly instead, in name order
	// for a deterministic event trail.
	d.mu.Lock()
	for _, name := range d.sortedNamesLocked() {
		c, ok := d.comps[name]
		if !ok {
			continue
		}
		if c.state == Active || c.state == Suspended {
			d.deactivateLocked(c, "component removed")
		}
		d.setStateLocked(c, Destroyed, "component removed")
		d.removeRecordLocked(c)
	}
	d.mu.Unlock()
}

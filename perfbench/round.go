package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// opSample is one timed management operation.
type opSample struct {
	kind string
	d    time.Duration
}

// round records one complete execution of a workload: set-up, the
// measured phase, correctness checks and teardown. A run repeats rounds
// with the same seed, so every round must reproduce the first one's
// digests, exact counts and simulated results.
type round struct {
	tr *tracer // nil in untraced rounds

	setup time.Duration
	// phase is the wall time the client spent inside the system's calls
	// during the measured phase (operations and simulated-time advances);
	// the benchmark's own checks and bookkeeping are excluded.
	phase       time.Duration
	advances    []time.Duration
	ops         []opSample
	opErrs      int
	firstErr    string
	simAdvanced time.Duration
	// events are the simulation events fired in the measured phase and
	// eventLayer the layer that fires them ("rtos", or "cluster" when the
	// kernels run under the federation's barriers).
	events     uint64
	eventLayer string
	// mallocs counts heap allocations in the measured phase, the
	// benchmark's own bookkeeping included.
	mallocs uint64
	heapMB  float64
	inPhase bool

	stream       *digest // the generated inputs, op stream included
	streamDigest string
	state        string // the final system state
	counts       map[string]float64
	sims         map[string]float64
	notes        []string
	failures     []string
}

func newRound() *round {
	return &round{
		eventLayer: "rtos",
		stream:     newDigest(),
		counts:     map[string]float64{},
		sims:       map[string]float64{},
	}
}

func (r *round) fail(format string, args ...any) {
	if len(r.failures) < 16 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *round) count(name string, v float64) { r.counts[name] += v }

func (r *round) timed(layer, name string, f func() error) (time.Duration, error) {
	return r.tr.timed(layer, name, f)
}

// op runs one management operation of the measured phase. An error is
// an outcome the op_error_frac metric reports, not a benchmark failure;
// it is returned for callers that cannot continue without the operation.
func (r *round) op(layer, kind string, f func() error) error {
	d, err := r.timed(layer, kind, f)
	r.phase += d
	r.ops = append(r.ops, opSample{kind, d})
	r.count("core.ops", 1)
	if err != nil {
		r.opErrs++
		if r.firstErr == "" {
			r.firstErr = kind + ": " + err.Error()
		}
	}
	return err
}

// advance runs one fixed simulated-time advance of the measured phase.
func (r *round) advance(layer, name string, sim time.Duration, f func() error) error {
	d, err := r.timed(layer, name, f)
	r.phase += d
	r.advances = append(r.advances, d)
	r.simAdvanced += sim
	return err
}

// parse parses one descriptor as a descriptor-layer call.
func (r *round) parse(src string) (*descriptor.Component, error) {
	var c *descriptor.Component
	_, err := r.timed("descriptor", "parse", func() error {
		var err error
		c, err = descriptor.Parse(src)
		return err
	})
	if r.inPhase {
		r.count("descriptor.parses", 1)
	}
	return c, err
}

// beginPhase opens the measured phase; begin are the observability
// snapshots whose counters the phase's counts are taken relative to. A
// forced collection first leaves no garbage of the set-up for the phase
// to pay for, so every round's phase starts from the same heap.
func (r *round) beginPhase(begin ...obs.Snapshot) {
	r.addSnapshots(-1, begin...)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs
	r.inPhase = true
}

// endPhase closes the measured phase: allocations, then the live heap
// after a forced collection, taken before the system is closed, then the
// phase's counter deltas from the end snapshots.
func (r *round) endPhase(events uint64, end func() []obs.Snapshot) {
	r.inPhase = false
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - r.mallocs
	r.events = events
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapMB = float64(ms.HeapAlloc) / 1e6
	r.addSnapshots(1, end()...)
}

// addSnapshots folds observability counters into the exact counts with
// the given sign. The worklist depth is a lifetime maximum, not a delta.
func (r *round) addSnapshots(sign float64, snaps ...obs.Snapshot) {
	for _, s := range snaps {
		for name, v := range map[string]uint64{
			"plan.compiles":         s.Plan.Compiles,
			"plan.cache_hits":       s.Plan.CacheHits,
			"plan.applies":          s.Plan.Applies,
			"plan.fallbacks":        s.Plan.Fallbacks,
			"policy.admissions":     s.Lifecycle.Activations,
			"policy.denials":        s.Lifecycle.Denials,
			"core.resolve_drains":   s.Resolve.Drains,
			"core.resolve_rounds":   s.Resolve.Rounds,
			"core.transitions":      s.Lifecycle.Transitions,
			"core.downgrades":       s.Degrade.Downgrades,
			"core.upgrades":         s.Degrade.Upgrades,
			"obs.spans_emitted":     s.SpansEmitted,
			"contract.violations":   s.Contract.Violations,
			"contract.revocations":  s.Contract.Revocations,
			"contract.restores":     s.Contract.Restores,
			"contract.quarantines":  s.Contract.Quarantines,
			"fault.injections":      s.Fault.Injections,
			"fault.clears":          s.Fault.Clears,
			"supervise.restarts":    s.Supervise.Restarts,
			"supervise.escalations": s.Supervise.Escalations,
			"cluster.migrations":    s.Cluster.Migrations,
			"cluster.placements":    s.Cluster.Placements,
		} {
			r.count(name, sign*float64(v))
		}
		if d := float64(s.Resolve.MaxWorklistDepth); sign > 0 && d > r.counts["core.worklist_depth_max"] {
			r.counts["core.worklist_depth_max"] = d
		}
	}
}

// deployBundle installs and starts one bundle carrying units as the
// separate layer calls System.DeployBundle makes: parse every descriptor,
// compile the composition plan, install, start. The DRCR adopts the
// bundle's components on start and applies the cached plan. As an op it
// counts as one management operation of the measured phase.
func deployBundle(r *round, asOp bool, d *core.DRCR, fw *osgi.Framework, sym string, units []unit, descs map[string]*descriptor.Component) (*osgi.Bundle, error) {
	var b *osgi.Bundle
	deploy := func() error {
		m := manifest.New(sym, manifest.MustParseVersion("1.0.0"))
		def := osgi.Definition{Manifest: m, Resources: make(map[string]string, len(units))}
		batch := make([]*descriptor.Component, 0, len(units))
		for _, u := range units {
			desc, err := r.parse(u.src)
			if err != nil {
				return fmt.Errorf("%s: %w", u.name, err)
			}
			batch = append(batch, desc)
			descs[u.name] = desc
			res := "OSGI-INF/" + u.name + ".xml"
			m.DRComComponents = append(m.DRComComponents, res)
			def.Resources[res] = u.src
		}
		if _, err := r.timed("plan", "compile", func() error {
			_, err := d.CompilePlan(batch)
			return err
		}); err != nil {
			return err
		}
		if _, err := r.timed("osgi", "install", func() error {
			var err error
			b, err = fw.Install(def)
			return err
		}); err != nil {
			return err
		}
		_, err := r.timed("core", "bundle_start", b.Start)
		return err
	}
	var err error
	if asOp {
		err = r.op("core", "bundle_deploy", deploy)
	} else {
		_, err = r.timed("core", "bundle_deploy", deploy)
	}
	return b, err
}

// bodyRegistry is a DRCR or a whole cluster, which registers on every node.
type bodyRegistry interface {
	RegisterBody(bincode string, f core.BodyFactory) error
}

// registerBodies binds the benchmark's component bodies. Producers write
// their outport every job, so the contract guard sees fresh ports; calc
// writes its dispatch latency, as in the paper's §4.2 application.
func registerBodies(reg bodyRegistry) error {
	prod := func(c *descriptor.Component) rtos.Body {
		if len(c.OutPorts) == 0 {
			return func(*rtos.JobContext) {}
		}
		topic := c.OutPorts[0].Name
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(topic); err == nil {
				_ = shm.Set(int(j.Index%4), int64(j.Index))
			}
		}
	}
	cons := func(c *descriptor.Component) rtos.Body {
		if len(c.InPorts) == 0 {
			return func(*rtos.JobContext) {}
		}
		topic := c.InPorts[0].Name
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(topic); err == nil {
				_, _ = shm.Get(0)
			}
		}
	}
	calc := func(c *descriptor.Component) rtos.Body {
		topic := c.OutPorts[0].Name
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(topic); err == nil {
				_ = shm.Set(0, int64(j.Now.Sub(j.Nominal)))
			}
		}
	}
	for _, b := range []struct {
		bincode string
		f       core.BodyFactory
	}{{"pb.Calc", calc}, {"pb.Cons", cons}, {"pb.Prod", prod}} {
		if err := reg.RegisterBody(b.bincode, b.f); err != nil {
			return err
		}
	}
	return nil
}

// taskSet remembers every kernel task incarnation seen at a poll, so job,
// miss and skip counts survive the task swaps that downgrades, revocations
// and restarts cause. An incarnation born and deleted between two polls
// is missed; the polls run at fixed simulated instants, so the counts
// stay exact per seed.
type taskSet map[*rtos.Task]struct{}

func (s taskSet) poll(k *rtos.Kernel) {
	for _, t := range k.Tasks() {
		s[t] = struct{}{}
	}
}

func (s taskSet) totals() (jobs, misses, skips uint64) {
	for t := range s {
		j, m, sk := t.Counters()
		jobs, misses, skips = jobs+j, misses+m, skips+sk
	}
	return jobs, misses, skips
}

// addTaskCounts records the kernel counters of the measured phase and the
// simulated miss fraction.
func (r *round) addTaskCounts(sets ...taskSet) {
	var jobs, misses, skips uint64
	for _, s := range sets {
		j, m, sk := s.totals()
		jobs, misses, skips = jobs+j, misses+m, skips+sk
	}
	r.count("rtos.jobs", float64(jobs))
	r.count("rtos.misses", float64(misses))
	r.count("rtos.skips", float64(skips))
	r.sims["sim_miss_frac"] = ratio(float64(misses+skips), float64(jobs))
}

func (r *round) addTriggerCounts(ks ...*rtos.Kernel) {
	for _, k := range ks {
		sent, _, dropped, _ := k.TriggerStats()
		r.count("rtos.triggers_sent", float64(sent))
		r.count("rtos.triggers_dropped", float64(dropped))
	}
}

// stateDigest folds one DRCR's final component states, its lifecycle
// event log and its span-stream digest, plus extra, into one SHA-256.
func stateDigest(d *core.DRCR, extra ...string) string {
	h := newDigest()
	for _, info := range d.Components() {
		keys := make([]string, 0, len(info.Bindings))
		for k := range info.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k + "->" + info.Bindings[k] + ",")
		}
		h.add("%s|%v|%d|%v|%s|%s", info.Name, info.State, info.Mode, info.Revoked, info.LastReason, b.String())
	}
	for _, ev := range d.Events() {
		h.add("%d|%s|%v|%v|%s", int64(ev.At), ev.Component, ev.From, ev.To, ev.Reason)
	}
	h.add("obs %s", d.Obs().Digest())
	for _, e := range extra {
		h.add("%s", e)
	}
	return h.sum()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

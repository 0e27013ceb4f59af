package core

// Composition-plan fast path: applying a compiled plan (package plan)
// installs a whole bundle, wires its ports and activates the whole DAG
// in one pass under the stripe locks, instead of N worklist rounds.
//
// The fast path is an optimisation, never a semantic fork. It runs only
// when a guard list proves the worklist engine could not have done
// anything the plan did not precompute — and then it emits exactly the
// spans and lifecycle events the event path would, in the same order,
// with the same causes, leaving every piece of engine bookkeeping
// (waiting set, provider index, admission view, drain epochs) in the
// state a real drain would have left it. Anything else falls back to
// the per-descriptor event path. The fast path is not a setting:
// production takes it whenever the guards hold. Only this package's
// differential tests force the event path (DRCR.noPlanFastPath), and
// they pin byte-identical event logs and obs digests between the two.

import (
	"sort"
	"time"

	"repro/internal/descriptor"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/plan"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// SetPlanCache replaces the DRCR's compiled-plan cache, so a cluster
// can share one cache across nodes: a plan compiled by the leader for a
// migration batch is found by key on the receiving node and applied
// without recompiling.
func (d *DRCR) SetPlanCache(c *plan.Cache) {
	if c == nil {
		return
	}
	d.mu.Lock()
	d.planCache = c
	d.mu.Unlock()
}

// PlanCache returns the DRCR's compiled-plan cache.
func (d *DRCR) PlanCache() *plan.Cache {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.planCache
}

// CompilePlan compiles (or fetches from the cache) the composition plan
// for a descriptor batch against the DRCR's current view. A typed port
// conflict returns (*plan.RejectError); System.DeployBundle surfaces it
// before anything is installed. The returned plan is also what the
// console's `plan` command renders.
func (d *DRCR) CompilePlan(descs []*descriptor.Component) (*plan.Plan, error) {
	env := d.planEnv()
	key := plan.KeyOf(descs)
	if p, ok := d.planCache.Get(key); ok {
		if p.ExtFP == plan.Fingerprint(descs, env.Providers) {
			d.obs.NotePlanCacheHit()
			return p, nil
		}
	}
	p, err := plan.Compile(descs, env)
	d.obs.NotePlanCompile()
	if err != nil {
		return nil, err
	}
	d.planCache.Put(p)
	return p, nil
}

// planEnv snapshots the compile environment: CPU count, the internal
// resolver's utilization bound, the admitted view, and every outport
// admitted outside the batch (local index plus remote provisions).
func (d *DRCR) planEnv() plan.Env {
	bound := 0.0
	if u, ok := d.utilizationOnly(); ok {
		bound = u.Bound
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return plan.Env{
		NumCPUs:   d.kernel.NumCPUs(),
		Bound:     bound,
		View:      d.viewLocked(),
		Providers: d.extProvidersLocked(),
	}
}

// utilizationOnly reports whether the effective resolver chain is
// exactly the internal utilization resolver — the only chain whose
// verdicts the plan compiler can replicate bit-for-bit. Any customized
// resolving service (possibly stateful) routes deploys to the event
// path, where it is consulted for real.
func (d *DRCR) utilizationOnly() (policy.Utilization, bool) {
	d.refreshChain()
	d.chainMu.Lock()
	chain := d.chain
	d.chainMu.Unlock()
	if len(chain) != 1 {
		return policy.Utilization{}, false
	}
	u, ok := chain[0].(policy.Utilization)
	return u, ok
}

// extProvidersLocked lists every admitted outport outside the batch:
// the local provider index plus the remote provision index.
func (d *DRCR) extProvidersLocked() []plan.ExtProvider {
	var out []plan.ExtProvider
	for _, ps := range d.provIndex {
		for _, p := range ps {
			out = append(out, plan.ExtProvider{Origin: p.name, Port: p.port})
		}
	}
	for _, es := range d.remoteProv {
		for _, e := range es {
			out = append(out, plan.ExtProvider{Origin: e.origin, Remote: true, Port: e.port})
		}
	}
	return out
}

// DeployAll deploys a descriptor batch as one unit: the plan fast path
// when applicable, else per-descriptor installs followed by one drain —
// exactly a bundle adoption without the bundle. The cluster's
// migration/evacuation batches land here.
func (d *DRCR) DeployAll(descs []*descriptor.Component) {
	start := time.Now()
	defer func() { d.obs.RecordLatency(obs.LatDeploy, time.Since(start).Nanoseconds()) }()
	t := d.cones.lockAll()
	defer d.cones.unlock(t)
	d.deployBatchLocked(descs, nil)
}

// deployBatchLocked runs under the all-stripes lock: plan fast path or
// install-all + one drain.
func (d *DRCR) deployBatchLocked(descs []*descriptor.Component, b *osgi.Bundle) {
	planStart := time.Now()
	if d.tryApplyPlan(descs, b) {
		d.obs.RecordLatency(obs.LatPlanApply, time.Since(planStart).Nanoseconds())
		// Listeners may have staged work mid-apply; drain it.
		d.resolveDelta()
		return
	}
	for _, desc := range descs {
		_ = d.addComponent(desc, b) // duplicates are skipped
	}
	d.resolveDelta()
}

// tryApplyPlan attempts the fast path for a descriptor batch. It
// reports false — having changed nothing — when any guard fails; the
// caller then runs the event path.
func (d *DRCR) tryApplyPlan(descs []*descriptor.Component, b *osgi.Bundle) bool {
	if d.noPlanFastPath || len(descs) == 0 {
		return false // test-forced event path: not a fallback, no note
	}
	// At Full level the event path's resolve rounds emit spans that
	// consume span IDs; the fast path has no rounds, so the ID streams
	// would diverge. Trace-everything runs take the event path.
	if d.obs.Level() == obs.Full {
		d.obs.NotePlanFallback()
		return false
	}
	util, ok := d.utilizationOnly()
	if !ok {
		// A customized resolving service (possibly stateful) must be
		// consulted for real, one candidate at a time.
		d.obs.NotePlanFallback()
		return false
	}

	d.mu.Lock()
	if d.closed || d.resolving ||
		len(d.waiting) != 0 || len(d.degraded) != 0 ||
		len(d.actPending) != 0 || len(d.deactPending) != 0 {
		// Pending engine work (or waiting components the batch's cascades
		// would touch): only a real drain resolves the interleaving.
		d.mu.Unlock()
		d.obs.NotePlanFallback()
		return false
	}
	for _, desc := range descs {
		if _, dup := d.comps[desc.Name]; dup {
			d.mu.Unlock()
			d.obs.NotePlanFallback()
			return false
		}
	}
	env := plan.Env{
		NumCPUs:   d.kernel.NumCPUs(),
		Bound:     util.Bound,
		View:      d.viewLocked(),
		Providers: d.extProvidersLocked(),
	}

	key := plan.KeyOf(descs)
	p, hit := d.planCache.Get(key)
	if hit && p.ExtFP != plan.Fingerprint(descs, env.Providers) {
		hit = false // providers moved since compilation; recompile
	}
	if hit {
		d.obs.NotePlanCacheHit()
	} else {
		var err error
		p, err = plan.Compile(descs, env)
		d.obs.NotePlanCompile()
		if err != nil {
			// Typed port conflict. A bundle adopted through the raw OSGi
			// lifecycle has no error channel (System.DeployBundle compiles
			// first and surfaces it); keep the legacy wait semantics.
			d.obs.NotePlanFallback()
			d.mu.Unlock()
			return false
		}
		d.planCache.Put(p)
	}
	if p.Fallback != "" {
		d.obs.NotePlanFallback()
		d.mu.Unlock()
		return false
	}
	if hit {
		// Cached plans were dry-run against an older view; re-run the
		// admission dry-run against the live one.
		if reason := p.AdmitDryRun(env.View, env.NumCPUs, util.Bound); reason != "" {
			d.obs.NotePlanFallback()
			d.mu.Unlock()
			return false
		}
	}
	specs, ok := d.preflightPlanLocked(p)
	if !ok {
		d.obs.NotePlanFallback()
		d.mu.Unlock()
		return false
	}

	// All guards green: apply. d.resolving coalesces reentrant Resolve
	// calls from listeners into the trailing drain, like a real drain.
	d.resolving = true
	d.applyPlanLocked(p, specs, b)
	d.resolving = false
	d.mu.Unlock()
	d.obs.NotePlanApply()
	return true
}

// preflightPlanLocked verifies that every scheduled activation will
// succeed: valid task specs, no kernel task or IPC object already using
// a scheduled name. The event path absorbs such failures one component
// at a time ("activation failed: ..."); the fast path must know them
// before the first span goes out. The validated specs (one per schedule
// entry) are returned so the apply stages them instead of rebuilding
// each — sim time cannot advance mid-apply, so they stay exact.
func (d *DRCR) preflightPlanLocked(p *plan.Plan) ([]rtos.TaskSpec, bool) {
	byName := map[string]*descriptor.Component{}
	for _, desc := range p.Components {
		byName[desc.Name] = desc
	}
	shms, boxes := d.kernel.IPC().Names()
	shmTaken := make(map[string]bool, len(shms))
	for _, n := range shms {
		shmTaken[n] = true
	}
	boxTaken := make(map[string]bool, len(boxes))
	for _, n := range boxes {
		boxTaken[n] = true
	}
	specs := make([]rtos.TaskSpec, len(p.Schedule))
	for i, name := range p.Schedule {
		desc := byName[name]
		if desc == nil {
			return nil, false
		}
		spec, err := d.taskSpecLocked(desc, 0)
		if err != nil {
			return nil, false
		}
		specs[i] = spec
		if _, exists := d.kernel.Task(name); exists {
			return nil, false
		}
		for _, out := range desc.OutPorts {
			switch out.Interface {
			case descriptor.SHM:
				if shmTaken[out.Name] {
					return nil, false
				}
				shmTaken[out.Name] = true
			case descriptor.Mailbox:
				if boxTaken[out.Name] {
					return nil, false
				}
				boxTaken[out.Name] = true
			}
		}
	}
	return specs, true
}

// applyPlanLocked is the one-pass whole-DAG apply: install every
// component in manifest order, then activate the schedule in order,
// reproducing the event path's spans, events, causes and bookkeeping
// exactly. Called with d.mu held and every guard satisfied.
func (d *DRCR) applyPlanLocked(p *plan.Plan, specs []rtos.TaskSpec, b *osgi.Bundle) {
	d.drainID++ // the apply is this deploy's drain
	d.obs.NoteDrain()

	// The plan knows the batch size, so grow the bookkeeping once instead
	// of paying append-and-shift reallocation N times mid-apply. Capacity
	// only — contents and ordering are untouched.
	n := len(p.Components)
	if need := len(d.events) + n + 2*len(p.Schedule); cap(d.events) < need {
		grown := make([]Event, len(d.events), need)
		copy(grown, d.events)
		d.events = grown
	}
	if need := len(d.allNames) + n; cap(d.allNames) < need {
		grown := make([]string, len(d.allNames), need)
		copy(grown, d.allNames)
		d.allNames = grown
	}

	// Install phase — the exact addComponent sequence, minus the
	// worklist staging (the schedule replaces the drain). Installed names
	// are collected and merged into allNames in one pass below; nothing in
	// the loop reads allNames, so the final slice is the one per-component
	// sorted inserts would have built.
	installed := make([]string, 0, n)
	raced := false // any skip voids the precompiled binding rows
	for _, desc := range p.Components {
		if _, dup := d.comps[desc.Name]; dup {
			raced = true
			continue // a listener callback raced an install; skip like the event path
		}
		c := &Component{desc: desc, bundle: b} // bindings stay nil until activation fills them
		if desc.Enabled {
			c.state = Unsatisfied
			c.lastReason = "deployed"
		} else {
			c.state = Disabled
			c.lastReason = "deployed disabled"
		}
		d.comps[desc.Name] = c
		installed = append(installed, desc.Name)
		for _, in := range desc.InPorts {
			key := keyOf(in)
			d.consIndex[key] = insertName(d.consIndex[key], desc.Name)
		}
		// Unsatisfied installs are NOT put in d.waiting here: scheduled
		// ones leave it again within this apply, and the set's event-path
		// contents are restored below (leftovers; the error branch) before
		// anything can read it — every reader during the apply window is
		// deferred by d.resolving or is the apply itself.
		c.lastSpan = d.obs.Deploy(d.kernel.Now(), desc.Name, c.state.String(), c.lastReason)
		d.emitLocked(Event{
			At: d.kernel.Now(), Component: desc.Name,
			From: 0, To: c.state, Reason: c.lastReason,
		})
	}

	sort.Strings(installed)
	d.allNames = mergeNames(d.allNames, installed)

	// Activation phase — the schedule is the worklist cursor's exact
	// admit order; causes chain along the same topic edges.
	spans := make([]obs.SpanID, len(p.Schedule))
	for i, name := range p.Schedule {
		c, ok := d.comps[name]
		if !ok || c.state != Unsatisfied || c.revoked {
			raced = true
			// A listener callback raced the batch. Listener-driven
			// transitions maintained d.waiting themselves; a bare budget
			// revoke did not move the state, so restore the membership the
			// install deferred.
			if ok && (c.state == Unsatisfied || c.state == Satisfied) {
				d.waiting[name] = c
			}
			continue
		}
		if ci := p.CauseIdx[i]; ci >= 0 {
			c.obsCause = spans[ci]
		}
		d.setStatePlanLocked(c, Satisfied, "functional constraints satisfied")
		// Chain the activation to the Unsatisfied→Satisfied move, exactly
		// like the worklist engine.
		c.obsCause = c.lastSpan
		c.mode = 0
		// Stage the precompiled activation-moment bindings and the
		// preflight-validated task spec — valid only while the live index
		// evolves exactly as the schedule simulated it; any skip above
		// reverts to per-inport index queries and a fresh spec.
		if !raced {
			if i < len(p.BindRows) {
				c.planBinds = p.BindRows[i]
			}
			c.planSpec = &specs[i]
		}
		if err := d.activateLocked(c); err != nil {
			c.planBinds = nil
			c.planSpec = nil
			// Preflight is supposed to make this unreachable; if it happens
			// anyway, leave the component exactly as the event path would
			// and hand the rest of the batch to a real drain.
			c.mode = 0
			c.lastReason = "activation failed: " + err.Error()
			c.wait = waitActivation
			// Restore the waiting set the event path would have built: every
			// batch member still short of Active (the failed component, the
			// unreached tail of the schedule, leftovers) belongs in it. Any
			// member a reentrant listener touched is already maintained.
			for _, desc := range p.Components {
				if cc, ok := d.comps[desc.Name]; ok &&
					(cc.state == Unsatisfied || cc.state == Satisfied) {
					d.waiting[desc.Name] = cc
				}
			}
			for wn := range d.waiting {
				d.enqueueActLocked(wn)
			}
			break
		}
		c.wait = waitNone
		c.cacheValid = false
		spans[i] = c.lastSpan // the SATISFIED→ACTIVE span: the cascade cause
	}

	// Leftovers: installed members with no feasible mode. The event
	// path's rounds visit them, leave the mode-0 missing-inport reason,
	// and seed their pending span cause from the first topic-edge
	// provider that activated — state future drains must see.
	for _, lo := range p.Leftovers {
		c, ok := d.comps[lo.Name]
		if !ok || c.state != Unsatisfied {
			continue
		}
		if lo.CauseIdx >= 0 && c.obsCause == 0 {
			c.obsCause = spans[lo.CauseIdx]
		}
		c.lastReason = "inport " + lo.Missing + " unsatisfied"
		c.wait = waitPorts
		d.waiting[lo.Name] = c // install deferred this; future drains visit it here
	}

	// Drain epilogue: the epochs a finished drain synchronises against.
	d.markSyncedLocked(d.chainEpoch.Load())
}

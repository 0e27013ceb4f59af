package core

// Incremental worklist-based constraint resolution.
//
// The paper's DRCR re-resolves functional and non-functional constraints
// on every run-time change (§2.2, §4.3). The reference implementation in
// fullsweep.go reproduces that literally: a fixed-point sweep over every
// managed component per change, O(n²)–O(n³) under churn. This file is the
// production engine: every lifecycle operation enqueues exactly the
// components whose constraints could have changed, and resolution drains
// that worklist, cascading along the reverse-dependency (port consumer)
// edges kept in consIndex and answering port queries from the admitted
// provider index instead of scanning the component set.
//
// The two engines must be observably identical — same final states, same
// lifecycle events in the same order, same reasons — which the
// differential churn tests pin. Three ordering rules make that hold:
//
//  1. deactivation rounds emulate the reference sweep's cursor: a
//     consumer dirtied behind the cursor waits for the next round, one
//     ahead of it joins the current round;
//  2. activation candidates are processed in ascending name order, and
//     the components waiting on admission are re-armed after every
//     admitted-set or resolver-chain change, mirroring the reference
//     fixed point. When every resolver in the chain is policy.CPULocal
//     (its verdict reads only the candidate's own processor), a waiter is
//     re-armed only when its processor's epoch moved (cpuadmit.go): any
//     other re-consult would repeat the denial it already holds. Two
//     hooks keep that invisible — spans, causes and round order included
//     — next to re-arming everyone: a waiter ahead of the activation
//     cursor joins the round when an activation moves its processor, and
//     a waiting consumer whose provider a deactivation round takes down
//     goes straight to that pass's activation round. A chain change, a
//     non-local chain, or a full Resolve re-arms every waiter;
//  3. admission decisions are cached only while the drain, the view
//     epoch and the resolver-chain epoch all stand still — customized
//     resolving services may be stateful across Resolve calls (the fault
//     injector's flap resolver is), so a full Resolve always re-consults.

import (
	"sort"
	"time"

	"repro/internal/descriptor"
	"repro/internal/obs"
	"repro/internal/policy"
)

// Resolve runs constraint resolution. It re-examines every waiting
// component (resolving services may have changed their answers since the
// last run) and drains all pending dirty work to a fixed point.
// Reentrant calls — e.g. service events raised while activating —
// coalesce into an extra pass.
func (d *DRCR) Resolve() {
	t := d.cones.lockAll()
	defer d.cones.unlock(t)
	d.runResolve(true)
}

// resolveDelta drains only the dirty work the calling operation staged.
func (d *DRCR) resolveDelta() { d.runResolve(false) }

func (d *DRCR) runResolve(full bool) {
	d.mu.Lock()
	if full && !d.opts.FullSweepResolve {
		d.markAllWaitingLocked()
	}
	if d.resolving {
		d.dirty = true
		d.mu.Unlock()
		return
	}
	d.resolving = true
	d.mu.Unlock()
	start := time.Now()
	defer func() {
		d.obs.RecordLatency(obs.LatResolve, time.Since(start).Nanoseconds())
		d.mu.Lock()
		d.resolving = false
		d.mu.Unlock()
	}()
	for pass := 0; pass < 1000; pass++ {
		var changed bool
		if d.opts.FullSweepResolve {
			changed = d.resolveOnce()
		} else {
			changed = d.drainWorklist()
		}
		d.mu.Lock()
		dirty := d.dirty
		d.dirty = false
		d.mu.Unlock()
		if !changed && !dirty {
			return
		}
	}
}

// markAllWaitingLocked arms every waiting component for re-examination —
// the full-Resolve contract external callers (and stateful customized
// resolvers) rely on.
func (d *DRCR) markAllWaitingLocked() {
	for name := range d.waiting {
		d.enqueueActLocked(name)
	}
}

// drainWorklist empties both worklists. Each iteration mirrors one
// reference pass — a deactivation round, then an activation round — so
// work a round stages behind its cursor lands in the next iteration, in
// the exact position the reference fixed point would give it.
func (d *DRCR) drainWorklist() bool {
	d.refreshChain() // outside d.mu: resolvers live in the registry
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainID++ // invalidates admission decisions cached by earlier drains
	d.obs.NoteDrain()
	changed := false
	for {
		// Trace the round only when there is staged work: a steady-state
		// Resolve with empty worklists stays span- and allocation-free.
		if len(d.deactPending) > 0 || len(d.actPending) > 0 {
			d.obs.ResolveRound(d.kernel.Now(), len(d.deactPending), len(d.actPending))
		}
		if d.deactRoundLocked() {
			changed = true
		}
		d.syncWaitersLocked() // deactivations free budget for admission waiters
		if d.actRoundLocked() {
			changed = true
		}
		d.syncWaitersLocked() // activations move the view; re-arm for next pass
		if len(d.deactPending) == 0 && len(d.actPending) == 0 {
			// Both worklists drained: new admissions always beat
			// promotions. Only now may a degraded component claim freed
			// capacity for a better mode; a success loops so waiters
			// re-synchronise against the moved view before the next one.
			if len(d.degraded) > 0 && d.promotePendingLocked(d.consultResolvers) {
				changed = true
				continue
			}
			d.rearmPartial = false
			return changed
		}
	}
}

// deactRoundLocked processes one round of the deactivation worklist,
// emulating the reference sweep's cursor: the staged names run in
// ascending order; cascading to a consumer ahead of the cursor joins the
// current round, behind it waits for the next.
func (d *DRCR) deactRoundLocked() bool {
	if len(d.deactPending) == 0 {
		return false
	}
	changed := false
	d.deactRound = append(d.deactRound[:0], d.deactPending...)
	d.deactPending = d.deactPending[:0]
	for _, name := range d.deactRound { // exactly the member keys
		delete(d.deactMember, name)
	}
	for i := 0; i < len(d.deactRound); i++ {
		name := d.deactRound[i]
		c, ok := d.comps[name]
		if !ok {
			continue
		}
		if c.state != Active && c.state != Suspended {
			// Not admitted: the activation round owns its re-check
			// (including a Satisfied→Unsatisfied demotion).
			if c.state == Unsatisfied || c.state == Satisfied {
				d.enqueueActLocked(name)
			}
			continue
		}
		missing := d.unsatisfiedInportLocked(c, c.mode)
		if missing == "" {
			continue
		}
		reason := "inport " + missing + " lost its provider"
		d.deactivateLocked(c, reason)
		d.setStateLocked(c, Unsatisfied, reason)
		changed = true
		d.enqueueActLocked(name)
		for _, out := range c.desc.OutPorts {
			for _, cn := range d.consIndex[keyOf(out)] {
				if cn == name {
					continue
				}
				if p, ok := d.comps[cn]; ok && p.obsCause == 0 {
					p.obsCause = c.lastSpan // this deactivation dirtied it
				}
				if cn > name {
					d.deactRound = insertRound(d.deactRound, i, cn)
				} else {
					d.enqueueDeactLocked(cn)
					if w, ok := d.waiting[cn]; ok && w.wait == waitAdmission {
						// Re-arming every waiter would bring it to this
						// pass's activation round, where the lost provider
						// first shows; a per-CPU re-arm might not.
						d.enqueueActLocked(cn)
					}
				}
			}
		}
	}
	return changed
}

// insertRound inserts name into the sorted tail round[i+1:] (dedup'd).
func insertRound(round []string, i int, name string) []string {
	tail := round[i+1:]
	j := sort.SearchStrings(tail, name)
	if j < len(tail) && tail[j] == name {
		return round
	}
	pos := i + 1 + j
	round = append(round, "")
	copy(round[pos+1:], round[pos:])
	round[pos] = name
	return round
}

// actRoundLocked processes one round of the activation worklist. Like
// the deactivation round, a cursor emulates the reference sweep: a
// consumer whose provider activates behind it waits for the next round
// (the reference catches it on its next pass), one ahead of the cursor
// joins the current round. Resolving services are consulted outside the
// lock, exactly like the reference engine, and the component is
// re-validated afterwards.
func (d *DRCR) actRoundLocked() bool {
	if len(d.actPending) == 0 {
		return false
	}
	changed := false
	d.actRound = append(d.actRound[:0], d.actPending...)
	d.actPending = d.actPending[:0]
	for _, name := range d.actRound { // exactly the member keys
		delete(d.actMember, name)
	}
	for i := 0; i < len(d.actRound); i++ {
		if d.tryActivateLocked(i) {
			changed = true
		}
	}
	d.rearmPartial = false
	return changed
}

// tryActivateLocked examines actRound[i]: functional constraints first,
// then admission, then activation, cascading to the new provider's
// waiting consumers on success. Reports whether anything changed.
func (d *DRCR) tryActivateLocked(i int) bool {
	name := d.actRound[i]
	c, ok := d.comps[name]
	if !ok || (c.state != Unsatisfied && c.state != Satisfied) {
		return false
	}
	if c.revoked {
		// A revoked budget bars re-admission until RestoreBudget; the
		// lifecycle stays where the revocation left it.
		return false
	}
	changed := false
	modes, missing := d.feasibleModesLocked(c)
	if len(modes) == 0 {
		c.wait = waitPorts
		if c.state == Satisfied {
			d.setStateLocked(c, Unsatisfied, "inport "+missing+" unsatisfied")
			return true
		}
		c.lastReason = "inport " + missing + " unsatisfied"
		return false
	}
	if c.state == Unsatisfied {
		d.setStateLocked(c, Satisfied, "functional constraints satisfied")
		changed = true
		// Chain what follows (admission verdict or activation) to the
		// Unsatisfied→Satisfied move that enabled it.
		c.obsCause = c.lastSpan
	}
	view := d.viewLocked()
	chainEpoch := d.chainEpoch.Load()
	var decision policy.Decision
	var mode int
	if c.cacheValid && c.cacheDrain == d.drainID &&
		c.cacheViewEpoch == d.viewEpoch && c.cacheChainEpoch == chainEpoch &&
		!d.chainDirty.Load() {
		decision = c.cachedDecision
		mode = c.cachedMode
	} else {
		viewEpoch, drainID := d.viewEpoch, d.drainID
		desc := c.desc
		// Snapshot the feasible-mode list before unlocking: the scratch
		// buffer is reused by reentrant resolution work.
		var stack [4]int
		ms := append(stack[:0], modes...)
		d.mu.Unlock()
		var note string
		decision, mode, note = d.admitWalk(view, desc, ms, d.consultResolvers)
		ce := d.chainEpoch.Load()
		d.mu.Lock()
		c2, ok := d.comps[name]
		if !ok || c2.state != Satisfied {
			return changed
		}
		c = c2
		c.cacheValid = true
		c.cacheDrain = drainID
		c.cacheViewEpoch = viewEpoch
		c.cacheChainEpoch = ce
		c.cachedDecision = decision
		c.cachedMode = mode
		c.admitNote = note
	}
	if !decision.Admit {
		d.noteDenyLocked(c, "admission denied: "+decision.Reason)
		c.wait = waitAdmission
		return changed
	}
	c.mode = mode
	if c.desc.Budget != nil {
		c.admitVerdict = decision.Verdict
	}
	if err := d.activateLocked(c); err != nil {
		c.mode = 0
		c.admitVerdict = ""
		c.lastReason = "activation failed: " + err.Error()
		c.wait = waitActivation
		return changed
	}
	c.wait = waitNone
	c.cacheValid = false
	if d.rearmPartial {
		// Re-arming every waiter would have put each in this round; the
		// per-CPU re-arm left out those whose processor had not moved.
		// One ahead of the cursor whose processor this activation moved
		// would see the change here, so it joins the round.
		for wn, w := range d.waiting {
			if wn > name && w.wait == waitAdmission && d.cpuMovedLocked(w.desc.CPU()) {
				d.actRound = insertRound(d.actRound, i, wn)
			}
		}
	}
	// Cascade to the new provider's waiting consumers: ahead of the
	// cursor they join this round, behind it the next.
	for _, out := range c.desc.OutPorts {
		for _, cn := range d.consIndex[keyOf(out)] {
			if cn == name {
				continue
			}
			p, ok := d.comps[cn]
			if !ok || (p.state != Unsatisfied && p.state != Satisfied) {
				continue
			}
			if p.obsCause == 0 {
				p.obsCause = c.lastSpan // this activation may satisfy it
			}
			if cn > name {
				d.actRound = insertRound(d.actRound, i, cn)
			} else {
				d.enqueueActLocked(cn)
			}
		}
	}
	return true
}

// syncWaitersLocked re-arms admission waiters when the admitted set or
// the resolver chain changed since the last synchronisation — the
// worklist equivalent of the reference engine running another full pass
// after any change. With an unchanged CPU-local chain only the waiters
// pinned to a processor whose epoch moved are re-armed: every other
// waiter's verdict is provably the one it already holds. A chain change
// or a non-local chain re-arms them all.
func (d *DRCR) syncWaitersLocked() {
	d.chainMu.Lock()
	ce, local := d.chainEpoch.Load(), d.chainLocal
	d.chainMu.Unlock()
	if d.drainViewEpoch == d.viewEpoch && d.drainChainEpoch == ce {
		return
	}
	local = local && d.drainChainEpoch == ce
	d.rearmPartial = d.rearmPartial || local
	for name, c := range d.waiting {
		switch c.wait {
		case waitActivation:
			d.enqueueActLocked(name)
		case waitAdmission:
			if !local || d.cpuMovedLocked(c.desc.CPU()) {
				d.enqueueActLocked(name)
			}
		}
	}
	d.markSyncedLocked(ce)
}

// markProviderDownLocked stages every consumer of a departed provider's
// outport topics for a satisfaction re-check.
func (d *DRCR) markProviderDownLocked(c *Component) {
	if d.opts.FullSweepResolve {
		return
	}
	for _, out := range c.desc.OutPorts {
		for _, cn := range d.consIndex[keyOf(out)] {
			if cn != c.desc.Name {
				if p, ok := d.comps[cn]; ok && p.obsCause == 0 {
					p.obsCause = c.lastSpan // the provider's departure span
				}
				d.enqueueDeactLocked(cn)
			}
		}
	}
}

// enqueueActLocked stages a component for the activation phase's next
// round; the staging list stays sorted so rounds run in name order.
func (d *DRCR) enqueueActLocked(name string) {
	if d.opts.FullSweepResolve || d.actMember[name] {
		return
	}
	d.actMember[name] = true
	i := sort.SearchStrings(d.actPending, name)
	d.actPending = append(d.actPending, "")
	copy(d.actPending[i+1:], d.actPending[i:])
	d.actPending[i] = name
}

func (d *DRCR) enqueueDeactLocked(name string) {
	if d.opts.FullSweepResolve || d.deactMember[name] {
		return
	}
	d.deactMember[name] = true
	i := sort.SearchStrings(d.deactPending, name)
	d.deactPending = append(d.deactPending, "")
	copy(d.deactPending[i+1:], d.deactPending[i:])
	d.deactPending[i] = name
}

// refreshChain rebuilds the cached resolver chain if a resolving-service
// registry event invalidated it. Called without d.mu held: customized
// resolvers live in the service registry and fetching them may call back.
func (d *DRCR) refreshChain() {
	if !d.chainDirty.Swap(false) {
		return
	}
	chain := policy.Chain{d.opts.Internal}
	for _, ref := range d.fw.ServiceReferences(policy.ServiceInterface, nil) {
		if r, ok := d.fw.Service(ref).(policy.Resolver); ok {
			chain = append(chain, r)
		}
	}
	d.chainMu.Lock()
	d.chain = chain
	d.chainLocal = policy.IsCPULocal(chain)
	d.chainEpoch.Add(1)
	d.chainMu.Unlock()
}

// consultResolvers chains the internal resolving service with every
// customized resolving service (§4.3), using the event-invalidated cache
// instead of re-querying the registry per candidate.
func (d *DRCR) consultResolvers(view policy.View, cand policy.Contract) policy.Decision {
	d.refreshChain()
	d.chainMu.Lock()
	chain := d.chain
	d.chainMu.Unlock()
	return chain.Admit(view, cand)
}

// unsatisfiedInportLocked returns the name of the first inport required
// in service mode m with no compatible outport among admitted
// components, or "". Mode 0 requires every inport; degraded modes exempt
// their dropped ones.
func (d *DRCR) unsatisfiedInportLocked(c *Component, mode int) string {
	if d.opts.FullSweepResolve {
		return d.unsatisfiedInportScanLocked(c, mode)
	}
	for _, in := range c.desc.InPorts {
		if !c.desc.RequiresInport(mode, in.Name) {
			continue
		}
		if d.findProviderIndexLocked(c.desc.Name, in) == "" {
			return in.Name
		}
	}
	return ""
}

// feasibleModesLocked collects, in declared order, the service modes of
// c whose required inports all have admitted providers, reusing the
// DRCR's scratch buffer. When no mode is feasible, missing names mode
// 0's first unsatisfied inport (each mode requires a subset of mode 0's
// inports, so mode 0 infeasible is implied).
func (d *DRCR) feasibleModesLocked(c *Component) (modes []int, missing string) {
	nm := c.desc.NumModes()
	d.feasModes = d.feasModes[:0]
	for m := 0; m < nm; m++ {
		miss := d.unsatisfiedInportLocked(c, m)
		if miss == "" {
			d.feasModes = append(d.feasModes, m)
		} else if m == 0 {
			missing = miss
		}
	}
	if len(d.feasModes) == 0 {
		return nil, missing
	}
	return d.feasModes, ""
}

// admitWalk consults the resolver chain for each port-feasible mode in
// declared order and returns the first admitting decision with its mode
// — "downgrade-before-deny": the best feasible contract is admitted
// instead of denying the component outright. When every mode is denied
// it returns the last (cheapest mode's) denial. note carries the first
// denial's reason, explaining why a degraded admission fell short of the
// full contract. Runs without d.mu held; both resolve engines share it.
func (d *DRCR) admitWalk(view policy.View, desc *descriptor.Component, modes []int,
	consult func(policy.View, policy.Contract) policy.Decision) (policy.Decision, int, string) {
	var decision policy.Decision
	note := ""
	for _, m := range modes {
		decision = consult(view, contractAt(desc, m))
		if decision.Admit {
			return decision, m, note
		}
		if note == "" {
			note = decision.Reason
		}
	}
	return decision, modes[len(modes)-1], note
}

// promotePendingLocked attempts one best-effort promotion: the first
// degraded component (in name order) that is active, not held back by a
// pending AllowPromotion, and whose next-better mode is port-feasible
// and admitted against the view minus its own current contract steps up
// one mode. Called with d.mu held and only when both worklists are
// empty, so new admissions always claim freed capacity first.
func (d *DRCR) promotePendingLocked(consult func(policy.View, policy.Contract) policy.Decision) bool {
	for i := 0; i < len(d.degraded); i++ {
		name := d.degraded[i]
		c, ok := d.comps[name]
		if !ok || c.state != Active || c.promoHold || c.revoked || c.mode == 0 {
			continue
		}
		target := c.mode - 1
		if d.unsatisfiedInportLocked(c, target) != "" {
			continue
		}
		view := d.promotionViewLocked(c)
		cand := contractAt(c.desc, target)
		mode := c.mode
		d.mu.Unlock()
		decision := consult(view, cand)
		d.mu.Lock()
		c2, ok := d.comps[name]
		if !ok || c2 != c || c.state != Active || c.mode != mode || c.promoHold || c.revoked {
			continue
		}
		if !decision.Admit {
			continue
		}
		from := c.desc.ModeName(c.mode)
		if err := d.setModeLocked(c, target, "promoted: capacity recovered"); err != nil {
			continue
		}
		c.lastSpan = d.obs.Upgrade(d.kernel.Now(), name, from, c.desc.ModeName(c.mode),
			"capacity recovered", c.lastSpan)
		d.emitModeEventLocked(c, "promoted toward full contract")
		return true
	}
	return false
}

// promotionViewLocked is the admission view with c's own current
// contract withdrawn — what the world looks like if the component
// released its degraded budget to claim a better mode. Only c's own
// processor's list is copied; the others are shared with the snapshot.
func (d *DRCR) promotionViewLocked(c *Component) policy.View {
	base := d.viewLocked()
	cpu := c.desc.CPU()
	per := make([][]policy.Contract, base.NumCPUs)
	for i := range per {
		per[i] = base.OnCPU(i)
	}
	var self policy.Contract
	own := make([]policy.Contract, 0, len(per[cpu]))
	for _, ct := range per[cpu] {
		if ct.Name == c.desc.Name {
			self = ct
			continue
		}
		own = append(own, ct)
	}
	per[cpu] = own
	v := policy.NewViewPerCPU(base.NumCPUs, per)
	v.Epoch = base.Epoch
	v.Stochastic = d.stochAdmitted > 0
	if self.Budget != nil {
		v.Stochastic = d.stochAdmitted > 1
	}
	v.CPULoad = append([]float64(nil), base.CPULoad...)
	v.CPULoad[cpu] -= self.CPUUsage
	return v
}

// findProviderLocked locates an admitted component whose outport can
// satisfy the given inport.
func (d *DRCR) findProviderLocked(self string, in descriptor.Port) string {
	if d.opts.FullSweepResolve {
		return d.findProviderScanLocked(self, in)
	}
	return d.findProviderIndexLocked(self, in)
}

// findProviderIndexLocked answers the provider query from the admitted
// provider index: a map lookup plus a walk of the (tiny, name-sorted)
// provider list for that topic, so the choice matches the reference scan
// over the name-sorted admitted set.
func (d *DRCR) findProviderIndexLocked(self string, in descriptor.Port) string {
	if in.Direction != descriptor.In {
		return ""
	}
	for _, p := range d.provIndex[keyOf(in)] {
		if p.name != self && p.port.CanSatisfy(in) {
			return p.name
		}
	}
	// No local provider: a remote provision (replicated over the cluster
	// network) satisfies the functional constraint too.
	return d.remoteProviderLocked(in)
}

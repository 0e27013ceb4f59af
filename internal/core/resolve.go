package core

// Incremental worklist-based constraint resolution.
//
// The paper's DRCR re-resolves functional and non-functional constraints
// on every run-time change (§2.2, §4.3). Read literally, that is a
// fixed-point sweep over every managed component per change, O(n²)–O(n³)
// under churn; that sweep survives only as the test oracle in
// fullsweep_test.go. This file is the one production engine: every
// lifecycle operation enqueues exactly the components whose constraints
// could have changed, and resolution drains that worklist, cascading
// along the reverse-dependency (port consumer) edges kept in consIndex
// and answering port queries from the admitted provider index instead of
// scanning the component set.
//
// The engine must be observably identical to the oracle — same final
// states, same lifecycle events in the same order, same reasons — which
// the differential churn tests pin. Three ordering rules make that hold:
//
//  1. deactivation rounds emulate the reference sweep's cursor: a
//     consumer dirtied behind the cursor waits for the next round, one
//     ahead of it joins the current round;
//  2. activation candidates are processed in ascending name order, and
//     the components waiting on admission are re-armed after every
//     admitted-set or resolver-chain change, mirroring the reference
//     fixed point. When every resolver in the chain is policy.CPULocal
//     (its verdict reads only the candidate's own processor), a waiter is
//     re-armed only when its processor's epoch moved: any other
//     re-consult would repeat the denial it already holds. A per-CPU
//     waiter index (cpuadmit.go) makes that re-arm visit only the moved
//     processors' admission waiters plus a small side set (activation
//     waiters, out-of-range pins), never the whole waiting set. Two hooks
//     keep the partial re-arm invisible — spans, causes and round order
//     included — next to re-arming everyone: a waiter ahead of the
//     activation cursor joins the round when an activation moves its
//     processor, and a waiting consumer whose provider a deactivation
//     round takes down goes straight to that pass's activation round. A
//     chain change, a non-local chain, or a full Resolve re-arms every
//     waiter. A policy.LoadOnly chain consulted about a constant-budget
//     candidate, while no distribution budget is admitted, reads a view
//     with the per-CPU loads but no contract lists (loadViewLocked), so a
//     moved epoch costs no list copy. Its denials are upward-closed in
//     usage, so a waiter already denied under the current chain is not
//     consulted when its processor's deny memo (cpuadmit.go) holds a
//     denial of no more usage at the same processor and chain epochs:
//     the consult could only deny again. The waiter is left as a
//     repeated denial leaves it, so the deny span the consult would have
//     added (the load is in the reason) is not emitted;
//  3. admission decisions are cached only while the drain, the view
//     epoch and the resolver-chain epoch all stand still — customized
//     resolving services may be stateful across Resolve calls (the fault
//     injector's flap resolver is), so a full Resolve always re-consults.

import (
	"math"
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
	d.runResolve(true)
}

// resolveDelta drains only the dirty work the calling operation staged.
func (d *DRCR) resolveDelta() { d.runResolve(false) }

func (d *DRCR) runResolve(full bool) {
	d.mu.Lock()
	if full {
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
	defer func() { d.obs.RecordLatency(obs.LatResolve, time.Since(start).Nanoseconds()) }()
	pass := d.drainWorklist
	if d.resolvePass != nil {
		pass = d.resolvePass
	}
	for i := 0; i < 1000; i++ {
		changed := pass()
		d.mu.Lock()
		dirty := d.dirty
		d.dirty = false
		if !changed && !dirty {
			// Stop and release the drain under one hold of d.mu: work a
			// concurrent caller stages after this check finds resolving
			// false and drains itself; none is left to a finished drain.
			d.resolving = false
			d.mu.Unlock()
			return
		}
		d.mu.Unlock()
	}
	d.mu.Lock()
	d.resolving = false
	d.mu.Unlock()
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
		d.setWaitLocked(c, waitPorts)
		if c.state == Satisfied {
			d.setStateLocked(c, Unsatisfied, "inport "+missing+" unsatisfied")
			return true
		}
		c.setReason("inport " + missing + " unsatisfied")
		return false
	}
	if c.state == Unsatisfied {
		d.setStateLocked(c, Satisfied, "functional constraints satisfied")
		changed = true
		// Chain what follows (admission verdict or activation) to the
		// Unsatisfied→Satisfied move that enabled it.
		c.obsCause = c.lastSpan
	}
	chainEpoch := d.chainEpoch.Load()
	var decision policy.Decision
	var mode int
	// denyChain is the chain epoch a denial below was rendered under: a
	// cached verdict keeps what its consult recorded, a fresh one the
	// epoch read above if the chain did not move during the consult.
	denyChain := c.denyChain
	if c.cacheValid && c.cacheDrain == d.drainID &&
		c.cacheViewEpoch == d.viewEpoch && c.cacheChainEpoch == chainEpoch &&
		!d.chainDirty.Load() {
		decision = c.cachedDecision
		mode = c.cachedMode
	} else {
		viewEpoch, drainID := d.viewEpoch, d.drainID
		desc := c.desc
		// A load-only chain decides a constant candidate over a constant
		// view on Load alone: hand it the list-free view. It also keeps a
		// deny memo per processor: a waiter that entered denied under the
		// current chain and asks for no less than a denial at this
		// processor epoch is skipped as a repeated denial (cause consumed,
		// reason and span kept), and a consult that denies feeds the memo.
		loadOnly := false
		var memo *denyMemo
		var memoCPU, memoChain uint64
		if cpu := desc.CPU(); desc.Budget == nil && d.stochAdmitted == 0 {
			inRange := cpu >= 0 && cpu < len(d.cpus)
			if inRange && !changed && c.wait == waitAdmission && !d.chainDirty.Load() {
				// The chain epoch is read after the dirty flag: a memo
				// at the current epoch was recorded under this very
				// chain, so the chain is load-only.
				ca, ce := &d.cpus[cpu], d.chainEpoch.Load()
				if c.denyChain == ce && ca.deny.holds(ca.epoch, ce) && minUsage(desc, modes) >= ca.deny.usage {
					d.takeCause(c)
					return false
				}
			}
			memoChain, loadOnly = d.chainCapsLocked()
			if inRange && loadOnly {
				memo, memoCPU = &d.cpus[cpu].deny, d.cpus[cpu].epoch
			}
		}
		var view policy.View
		consult := d.consultResolvers
		if loadOnly {
			view, consult = d.loadViewLocked(), d.consultLoadOnly
		} else {
			view = d.viewLocked()
		}
		// Snapshot the feasible-mode list before unlocking: the scratch
		// buffer is reused by reentrant resolution work.
		var stack [4]int
		ms := append(stack[:0], modes...)
		d.mu.Unlock()
		var note string
		decision, mode, note = d.admitWalk(view, desc, ms, consult)
		ce := d.chainEpoch.Load()
		d.mu.Lock()
		if memo != nil && !decision.Admit && ce == memoChain {
			// Recorded at the epochs read before d.mu was dropped: a change
			// made meanwhile leaves the memo stale, not wrong.
			memo.note(memoCPU, memoChain, minUsage(desc, ms))
		}
		c2, ok := d.comps[name]
		if !ok || c2.state != Satisfied {
			return changed
		}
		c = c2
		denyChain = 0
		if ce == chainEpoch {
			denyChain = ce
		}
		c.cacheValid = true
		c.cacheDrain = drainID
		c.cacheViewEpoch = viewEpoch
		c.cacheChainEpoch = ce
		c.cachedDecision = decision
		c.cachedMode = mode
		c.admitNote = note
	}
	if !decision.Admit {
		d.noteDenyLocked(c, decision.Reason, denyChain)
		d.setWaitLocked(c, waitAdmission)
		return changed
	}
	// The Satisfied event and the resolver consult ran without d.mu, and
	// a listener or a concurrent caller may have taken a provider away
	// meanwhile: re-check the chosen mode's inports and, if one is gone,
	// let the next round re-walk the modes still feasible (or demote the
	// component) instead of binding it to nothing. The cached verdict is
	// dropped: a remote withdrawal moves no epoch, so it would hit again.
	if d.unsatisfiedInportLocked(c, mode) != "" {
		c.cacheValid = false
		d.enqueueActLocked(name)
		return changed
	}
	c.mode = mode
	if c.desc.Budget != nil {
		c.admitVerdict = decision.Verdict
	}
	if err := d.activateLocked(c); err != nil {
		c.mode = 0
		c.admitVerdict = ""
		c.setReason("activation failed: " + err.Error())
		d.setWaitLocked(c, waitActivation)
		return changed
	}
	d.setWaitLocked(c, waitNone)
	c.cacheValid = false
	if d.rearmPartial {
		// Re-arming every waiter would have put each in this round; the
		// per-CPU re-arm left out those whose processor had not moved.
		// An admission waiter ahead of the cursor whose processor this
		// activation moved (or that is pinned out of range) would see the
		// change here, so it joins the round.
		for _, wn := range d.sideWaiters {
			if wn > name && d.waiting[wn].wait == waitAdmission {
				d.actRound = insertRound(d.actRound, i, wn)
			}
		}
		for cpu := range d.cpus {
			if ws := d.cpus[cpu].waiters; d.cpuMovedLocked(cpu) {
				for _, wn := range ws[sort.SearchStrings(ws, name):] {
					if wn != name {
						d.actRound = insertRound(d.actRound, i, wn)
					}
				}
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
// after any change. With an unchanged CPU-local chain only the side set
// and the waiters pinned to a processor whose epoch moved are re-armed:
// every other waiter's verdict is provably the one it already holds. A
// chain change or a non-local chain re-arms them all. Every set is
// name-sorted and staging is sorted insertion, so the visit order does
// not show.
func (d *DRCR) syncWaitersLocked() {
	d.chainMu.Lock()
	ce, local := d.chainEpoch.Load(), d.chainLocal
	d.chainMu.Unlock()
	if d.drainViewEpoch == d.viewEpoch && d.drainChainEpoch == ce {
		return
	}
	local = local && d.drainChainEpoch == ce
	d.rearmPartial = d.rearmPartial || local
	for _, name := range d.sideWaiters {
		d.enqueueActLocked(name)
	}
	for cpu := range d.cpus {
		if !local || d.cpuMovedLocked(cpu) {
			for _, name := range d.cpus[cpu].waiters {
				d.enqueueActLocked(name)
			}
		}
	}
	d.markSyncedLocked(ce)
}

// markProviderDownLocked stages every consumer of a departed provider's
// outport topics for a satisfaction re-check.
func (d *DRCR) markProviderDownLocked(c *Component) {
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
	d.actPending = insertName(d.actPending, name)
}

func (d *DRCR) enqueueDeactLocked(name string) {
	d.deactPending = insertName(d.deactPending, name)
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
	d.chainLoadOnly = policy.IsLoadOnly(chain)
	d.chainEpoch.Add(1)
	d.chainMu.Unlock()
}

// chainCapsLocked reads the cached chain's epoch with its policy.LoadOnly
// capability, under one hold of chainMu so the two describe the same
// chain.
func (d *DRCR) chainCapsLocked() (epoch uint64, loadOnly bool) {
	d.chainMu.Lock()
	defer d.chainMu.Unlock()
	return d.chainEpoch.Load(), d.chainLoadOnly
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

// consultLoadOnly is consultResolvers over a list-free view. A resolver
// registered since the view was chosen may have cost the chain its
// LoadOnly capability; the consult then runs over the full view instead.
func (d *DRCR) consultLoadOnly(view policy.View, cand policy.Contract) policy.Decision {
	d.refreshChain()
	d.chainMu.Lock()
	chain, loadOnly := d.chain, d.chainLoadOnly
	d.chainMu.Unlock()
	if !loadOnly {
		view = d.GlobalView()
	}
	return chain.Admit(view, cand)
}

// unsatisfiedInportLocked returns the name of the first inport required
// in service mode m with no compatible outport among admitted
// components, or "". Mode 0 requires every inport; degraded modes exempt
// their dropped ones.
func (d *DRCR) unsatisfiedInportLocked(c *Component, mode int) string {
	for _, in := range c.desc.InPorts {
		if !c.desc.RequiresInport(mode, in.Name) {
			continue
		}
		if d.findProviderLocked(c.desc.Name, in) == "" {
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

// minUsage is the smallest declared budget among the given service modes
// of desc: the usage every mode's contract asks for at least.
func minUsage(desc *descriptor.Component, modes []int) float64 {
	u := math.Inf(1)
	for _, m := range modes {
		u = min(u, desc.ModeSpec(m).CPUUsage)
	}
	return u
}

// admitWalk consults the resolver chain for each port-feasible mode in
// declared order and returns the first admitting decision with its mode
// — "downgrade-before-deny": the best feasible contract is admitted
// instead of denying the component outright. When every mode is denied
// it returns the last (cheapest mode's) denial. note carries the first
// denial's reason, explaining why a degraded admission fell short of the
// full contract. Runs without d.mu held; the full-sweep test oracle
// shares it.
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

// findProviderLocked binds an inport from the provider index: the
// admitted providers of its topic (a tiny name-sorted list, so the
// choice matches a scan over the name-sorted admitted set), then the
// remote provisions replicated over the cluster network.
func (d *DRCR) findProviderLocked(self string, in descriptor.Port) string {
	k := keyOf(in)
	name, _ := chooseProvider(self, in, d.provIndex[k], d.remoteProv[k])
	return name
}

// chooseProvider is the one provider-choice rule (§2.3): the first local
// candidate other than the consumer self whose outport satisfies the
// inport, else the first remote provision that does. local and remote
// are name-sorted candidates on the inport's topic. It returns the
// chosen name and its index in local, or -1 when the choice is remote
// or there is none. Candidates are read in place: a Port is ~100 bytes.
func chooseProvider(self string, in descriptor.Port, local, remote []portProv) (string, int) {
	for i := range local {
		if p := &local[i]; p.name != self && p.port.CanSatisfy(in) {
			return p.name, i
		}
	}
	for i := range remote {
		if p := &remote[i]; p.port.CanSatisfy(in) {
			return p.name, -1
		}
	}
	return "", -1
}

package core

// Per-CPU admission state. Every built-in resolving service decides a
// candidate from its own processor's contracts alone, so the DRCR keeps
// the admitted set per processor: a lifecycle change touches one list,
// one load sum and one epoch; a view snapshot re-copies only the lists
// that changed; and a load-only chain (policy.LoadOnly) deciding a
// constant-budget candidate reads a view with no lists at all
// (loadViewLocked).
//
// The admission waiters are indexed the same way: each processor holds
// the names of the components of d.waiting pinned to it whose wait is
// waitAdmission, and a small side set holds the activation waiters and
// any admission waiter pinned out of range. The index changes only
// through setWaitLocked (every c.wait assignment) and addWaitingLocked /
// dropWaitingLocked (every d.waiting insert and delete). With a
// CPU-local chain the worklist engine re-arms the side set and the sets
// of processors whose epoch moved (syncWaitersLocked, and the cursor
// hook in tryActivateLocked), so one admission change costs work in the
// waiters of the processor it touched, not in the whole waiting set.
//
// A moved processor's waiters are still examined, but not all consulted.
// With a policy.LoadOnly chain, a denial at one processor epoch
// proves the denial of every waiter there asking for no less: each
// processor keeps a deny memo (the smallest usage denied at its current
// epoch and chain epoch), and tryActivateLocked skips a waiter the memo
// covers exactly as a repeated denial would leave it, minus the consult.

import (
	"slices"
	"sort"

	"repro/internal/policy"
)

// cpuAdmission is one processor's admitted set.
type cpuAdmission struct {
	// admitted holds the contracts of the processor's Active/Suspended
	// components, in name order.
	admitted []policy.Contract
	// epoch counts changes that can move a CPU-local verdict here: any
	// change to admitted, and every flip of View.Stochastic.
	epoch uint64
	// snap is the immutable copy of admitted that view snapshots share;
	// snapStale marks it out of date, loadStale marks d.cpuLoad's entry.
	snap      []policy.Contract
	snapStale bool
	loadStale bool
	// waiters is the name-sorted set of admission waiters pinned here:
	// the components of d.waiting whose wait is waitAdmission.
	waiters []string
	// deny is the processor's deny memo.
	deny denyMemo
}

// denyMemo records that a load-only chain, at resolver-chain
// epoch chainEpoch, denied a constant candidate of usage on its processor
// at processor epoch cpuEpoch. Any later epoch on either side makes it
// stale, never wrong.
type denyMemo struct {
	valid      bool
	cpuEpoch   uint64
	chainEpoch uint64
	usage      float64
}

// holds reports whether the memo records a denial at the given epochs;
// it then proves the denial of every candidate asking for at least usage.
func (m *denyMemo) holds(cpuEpoch, chainEpoch uint64) bool {
	return m.valid && m.cpuEpoch == cpuEpoch && m.chainEpoch == chainEpoch
}

// note records a denial of usage at the given epochs, keeping the
// smallest usage denied while the epochs stand.
func (m *denyMemo) note(cpuEpoch, chainEpoch uint64, usage float64) {
	if !m.holds(cpuEpoch, chainEpoch) || usage < m.usage {
		*m = denyMemo{valid: true, cpuEpoch: cpuEpoch, chainEpoch: chainEpoch, usage: usage}
	}
}

// touch records a change to the processor's admitted list.
func (ca *cpuAdmission) touch() {
	ca.epoch++
	ca.snapStale = true
	ca.loadStale = true
}

// find returns where name is, or would be inserted, in the name-sorted
// admitted list, and whether it is there.
func (ca *cpuAdmission) find(name string) (int, bool) {
	i := sort.Search(len(ca.admitted), func(i int) bool { return ca.admitted[i].Name >= name })
	return i, i < len(ca.admitted) && ca.admitted[i].Name == name
}

// admitContractLocked files ct in its processor's name-sorted list.
func (d *DRCR) admitContractLocked(ct policy.Contract) {
	ca := &d.cpus[ct.CPU]
	i, _ := ca.find(ct.Name)
	ca.admitted = slices.Insert(ca.admitted, i, ct)
	ca.touch()
	d.noteStochLocked(false, ct.Budget != nil)
}

// withdrawContractLocked removes name from processor cpu's list,
// reporting whether it was there.
func (d *DRCR) withdrawContractLocked(cpu int, name string) bool {
	ca := &d.cpus[cpu]
	i, ok := ca.find(name)
	if !ok {
		return false
	}
	d.noteStochLocked(ca.admitted[i].Budget != nil, false)
	ca.admitted = slices.Delete(ca.admitted, i, i+1)
	ca.touch()
	return true
}

// swapContractLocked replaces the admitted contract of ct.Name in place
// (a mode change: same component, same processor, new budget).
func (d *DRCR) swapContractLocked(ct policy.Contract) {
	ca := &d.cpus[ct.CPU]
	i, ok := ca.find(ct.Name)
	if !ok {
		return
	}
	d.noteStochLocked(ca.admitted[i].Budget != nil, ct.Budget != nil)
	ca.admitted[i] = ct
	ca.touch()
}

// noteStochLocked tracks one admitted contract whose budget went from
// distribution-valued (was) to (is). When View.Stochastic flips, every
// processor's epoch moves: Utilization switches admission paths on the
// flag, for candidates on any CPU.
func (d *DRCR) noteStochLocked(was, is bool) {
	if was == is {
		return
	}
	before := d.stochAdmitted > 0
	if is {
		d.stochAdmitted++
	} else {
		d.stochAdmitted--
	}
	if before != (d.stochAdmitted > 0) {
		for i := range d.cpus {
			d.cpus[i].epoch++
		}
	}
}

// cpuMovedLocked reports whether a waiter pinned to processor cpu may
// see a different CPU-local verdict than at the last waiter
// synchronisation. A waiter pinned out of range has no epoch: the side
// set holds it and is always re-armed.
func (d *DRCR) cpuMovedLocked(cpu int) bool {
	return d.cpus[cpu].epoch != d.drainCPUEpoch[cpu]
}

// waiterSetLocked returns the waiter-index set that holds c while it is
// in d.waiting: its processor's set for an admission waiter, the side set
// for an activation waiter or an out-of-range pin, and nil for a waiter
// no admitted-set change can help (port waiters, fresh records).
func (d *DRCR) waiterSetLocked(c *Component) *[]string {
	switch c.wait {
	case waitAdmission:
		if cpu := c.desc.CPU(); cpu >= 0 && cpu < len(d.cpus) {
			return &d.cpus[cpu].waiters
		}
		return &d.sideWaiters
	case waitActivation:
		return &d.sideWaiters
	}
	return nil
}

// indexWaiterLocked files c in (on) or takes it out of its waiter set.
func (d *DRCR) indexWaiterLocked(c *Component, on bool) {
	set := d.waiterSetLocked(c)
	switch {
	case set == nil:
	case on:
		*set = insertName(*set, c.desc.Name)
	default:
		*set = removeName(*set, c.desc.Name)
	}
}

// setWaitLocked records why c waits, moving it between waiter sets when
// it is the record d.waiting holds. Every c.wait assignment goes here.
func (d *DRCR) setWaitLocked(c *Component, w waitKind) {
	if c.wait == w {
		return
	}
	indexed := d.waiting[c.desc.Name] == c
	if indexed {
		d.indexWaiterLocked(c, false)
	}
	c.wait = w
	if indexed {
		d.indexWaiterLocked(c, true)
	}
}

// addWaitingLocked files c in d.waiting and its waiter set, replacing any
// record of the same name. Every d.waiting insert goes here.
func (d *DRCR) addWaitingLocked(c *Component) {
	name := c.desc.Name
	if w, ok := d.waiting[name]; ok {
		if w == c {
			return
		}
		d.indexWaiterLocked(w, false)
	}
	d.waiting[name] = c
	d.indexWaiterLocked(c, true)
}

// dropWaitingLocked takes the record named name out of d.waiting and its
// waiter set. Every d.waiting delete goes here.
func (d *DRCR) dropWaitingLocked(name string) {
	if w, ok := d.waiting[name]; ok {
		delete(d.waiting, name)
		d.indexWaiterLocked(w, false)
	}
}

// markSyncedLocked records the epochs a waiter synchronisation ran
// against.
func (d *DRCR) markSyncedLocked(chainEpoch uint64) {
	d.drainViewEpoch, d.drainChainEpoch = d.viewEpoch, chainEpoch
	for i := range d.cpus {
		d.drainCPUEpoch[i] = d.cpus[i].epoch
	}
}

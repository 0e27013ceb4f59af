package core

// Per-CPU admission state. Every built-in resolving service decides a
// candidate from its own processor's contracts alone, so the DRCR keeps
// the admitted set per processor: a lifecycle change touches one list,
// one load sum and one epoch; a view snapshot re-copies only the lists
// that changed; and with a CPU-local resolver chain the worklist engine
// re-consults only the admission waiters of processors whose epoch moved
// (syncWaitersLocked).

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

// cpuMovedLocked reports whether a waiter pinned to cpu may see a
// different CPU-local verdict than at the last waiter synchronisation.
// An out-of-range pin has no epoch and counts as moved.
func (d *DRCR) cpuMovedLocked(cpu int) bool {
	if cpu < 0 || cpu >= len(d.cpus) {
		return true
	}
	return d.cpus[cpu].epoch != d.drainCPUEpoch[cpu]
}

// markSyncedLocked records the epochs a waiter synchronisation ran
// against.
func (d *DRCR) markSyncedLocked(chainEpoch uint64) {
	d.drainViewEpoch, d.drainChainEpoch = d.viewEpoch, chainEpoch
	for i := range d.cpus {
		d.drainCPUEpoch[i] = d.cpus[i].epoch
	}
}

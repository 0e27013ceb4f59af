package core

import "fmt"

// Violation intake — the budget-revocation transition of Figure 1.
//
// Runtime contract monitors (package contract) watch the kernel's actual
// accounting against each component's declared contract. When a component
// breaks its promise — measured CPU past the declared cpuusage budget, a
// deadline-miss storm, a stale outport — the guard reports the violation
// here, and the DRCR reacts through its existing pipeline: the offender's
// instance is torn down, its contract leaves the global view so dependants
// cascade through resolution, and the component is barred from
// re-admission until the guard restores its budget.

// RevokeBudget withdraws a component's admitted real-time contract in
// response to a runtime contract violation. The component drops to
// UNSATISFIED (deactivating its RT task and releasing its transports),
// resolution re-runs so dependants cascade or alternatives take over, and
// the component is excluded from the activation sweep until
// RestoreBudget lifts the revocation.
func (d *DRCR) RevokeBudget(name, reason string) error {
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	why := "budget revoked: " + reason
	// The revoke span's cause is the ambient one the guard pushed (the
	// violation that triggered it); the Unsatisfied transition and the
	// dependant cascade chain to the revoke span in turn.
	c.obsCause = d.obs.Revoke(d.kernel.Now(), name, why)
	if c.state == Active || c.state == Suspended {
		d.deactivateLocked(c, why)
		d.setStateLocked(c, Unsatisfied, why)
		d.markProviderDownLocked(c)
	}
	c.revoked = true
	// No admitted-set change can help a revoked component until
	// RestoreBudget re-stages it, so it leaves the waiter index.
	d.setWaitLocked(c, waitNone)
	c.setReason(why)
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

// RestoreBudget lifts a revocation: the component may be admitted again
// on the next resolution pass (run immediately), so a healed component
// and its dependants return to ACTIVE in dependency order.
func (d *DRCR) RestoreBudget(name string) error {
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	if !c.revoked {
		d.mu.Unlock()
		return nil
	}
	c.revoked = false
	c.setReason("budget restored")
	// Ambient cause: the quarantine span the guard pushed. Re-admission
	// spans chain to the restore.
	c.obsCause = d.obs.Restore(d.kernel.Now(), name, "budget restored")
	d.enqueueActLocked(name)
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

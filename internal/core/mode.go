package core

// Service-mode transitions — graceful degradation (§6 direction: richer
// component descriptions let the runtime adapt instead of denying).
//
// A component with declared <mode> elements owns a ladder of contracts:
// mode 0 is the full contract, later modes trade rate, budget, or
// optional inputs for admissibility. Three movements exist:
//
//   - downgrade-before-deny at admission time (resolve.go/fullsweep.go):
//     if the full contract is denied, the cheapest admissible mode is
//     activated instead of leaving the component denied;
//   - Downgrade, the contract guard's first remedy: step a violating
//     component one mode down instead of revoking its budget outright;
//   - best-effort promotion (promotePendingLocked): when capacity frees,
//     degraded components step back toward mode 0, deterministically in
//     name order, unless a promoHold (cleared by AllowPromotion) gates
//     them.
//
// Mode swaps keep the component ACTIVE throughout: its outport
// transports survive, so dependants never cascade on a downgrade.

import (
	"fmt"

	"repro/internal/hrc"
	"repro/internal/rtos"
)

// setModeLocked re-instantiates c's RT task under the contract of the
// given service mode, updating the admission view in place. The
// component must be Active. Its outport IPC objects are owned by the
// component record and deliberately left untouched: dependants keep
// their bindings across the swap.
func (d *DRCR) setModeLocked(c *Component, mode int, reason string) error {
	spec, err := d.taskSpecLocked(c.desc, mode)
	if err != nil {
		return err
	}
	if c.mgmtReg != nil {
		_ = c.mgmtReg.Unregister()
		c.mgmtReg = nil
	}
	if c.inst != nil {
		_ = c.inst.Close()
		c.inst = nil
	}
	var body rtos.Body
	if f := d.factories[c.desc.Implementation]; f != nil {
		body = f(c.desc)
	}
	props := map[string]string{}
	for _, p := range c.desc.Properties {
		props[p.Name] = p.Value
	}
	inst, err := hrc.New(hrc.Config{
		Kernel: d.kernel,
		Spec:   spec,
		Body:   body,
		Props:  props,
	})
	if err == nil {
		err = inst.Start()
		if err != nil {
			_ = inst.Close()
		}
	}
	if err != nil {
		// The old instance is gone and the new one would not start: the
		// component cannot stay admitted. Tear it down through the normal
		// pipeline so dependants cascade.
		why := "mode change failed: " + err.Error()
		d.deactivateLocked(c, why)
		d.setStateLocked(c, Unsatisfied, why)
		d.markProviderDownLocked(c)
		return err
	}
	wasDegraded, isDegraded := c.mode > 0, mode > 0
	c.inst = inst
	c.mode = mode
	c.lastReason = reason
	// Rebind the inports the new mode requires; dropped ones stay unbound.
	c.bindings = map[string]string{}
	for _, in := range c.desc.InPorts {
		if !c.desc.RequiresInport(mode, in.Name) {
			continue
		}
		c.bindings[in.Name] = d.findProviderLocked(c.desc.Name, in)
	}
	// Swap the promised contract in the admission view. Membership did not
	// change, so the provider index stands; the component's CPU (its
	// budget total and epoch) and the view epoch move.
	name := c.desc.Name
	d.swapContractLocked(contractAt(c.desc, mode))
	if isDegraded && !wasDegraded {
		d.degraded = insertName(d.degraded, name)
	} else if !isDegraded && wasDegraded {
		d.degraded = removeName(d.degraded, name)
	}
	d.viewEpoch++
	d.registerMgmtLocked(c, inst)
	return nil
}

// emitModeEventLocked publishes a synthetic ACTIVE→ACTIVE lifecycle
// event for a mode swap. Listeners keyed on re-activation (the fault
// injector re-applies open faults when a component comes up) must see
// the new instance, which the swap replaced.
func (d *DRCR) emitModeEventLocked(c *Component, reason string) {
	c.lastReason = reason
	d.emitLocked(Event{
		At: d.kernel.Now(), Component: c.desc.Name,
		From: Active, To: Active, Reason: reason,
	})
}

// Downgrade steps an active component one service mode down — the
// contract guard's remedy before revocation: shed load, stay available.
// The component keeps running under the cheaper contract; best-effort
// promotion back toward mode 0 is barred until AllowPromotion.
func (d *DRCR) Downgrade(name, reason string) error {
	t := d.coneOf(name)
	defer d.cones.unlock(t)
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	if c.state != Active {
		st := c.state
		d.mu.Unlock()
		return fmt.Errorf("core: cannot downgrade %s in state %v", name, st)
	}
	if c.mode+1 >= c.desc.NumModes() {
		d.mu.Unlock()
		return fmt.Errorf("core: %s has no mode below %q", name, c.desc.ModeName(c.mode))
	}
	from := c.desc.ModeName(c.mode)
	why := "downgraded: " + reason
	if err := d.setModeLocked(c, c.mode+1, why); err != nil {
		d.mu.Unlock()
		d.resolveDelta()
		return err
	}
	c.promoHold = true
	// Cause: the ambient span the guard pushed (the violation), if any.
	c.lastSpan = d.obs.Downgrade(d.kernel.Now(), name, from, c.desc.ModeName(c.mode), reason, 0)
	d.emitModeEventLocked(c, why)
	d.mu.Unlock()
	// The downgrade freed declared budget: waiters may now be admissible.
	d.resolveDelta()
	return nil
}

// AllowPromotion lifts the promotion hold a Downgrade placed, letting
// the next resolution pass consider stepping the component back toward
// its full contract. The guard calls this when its backoff expires.
func (d *DRCR) AllowPromotion(name string) error {
	t := d.coneOf(name)
	defer d.cones.unlock(t)
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	c.promoHold = false
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

// Crash reports an abrupt component failure (a fault-injected crash):
// the instance is torn down and the component lands DISABLED — it does
// not re-enter resolution by itself. The restart supervisor (package
// supervise) owns bringing it back via Enable, under its restart
// budget.
func (d *DRCR) Crash(name, reason string) error {
	t := d.coneOf(name)
	defer d.cones.unlock(t)
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	if c.state == Disabled || c.state == Destroyed {
		d.mu.Unlock()
		return nil
	}
	why := "crashed: " + reason
	wasAdmitted := c.state == Active || c.state == Suspended
	if wasAdmitted {
		d.deactivateLocked(c, why)
	}
	d.setStateLocked(c, Disabled, why)
	if wasAdmitted {
		d.markProviderDownLocked(c)
	}
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

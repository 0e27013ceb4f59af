package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/descriptor"
	"repro/internal/hrc"
	"repro/internal/ldap"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// Common errors.
var (
	ErrUnknownComponent = errors.New("core: unknown component")
	ErrClosed           = errors.New("core: DRCR closed")
)

// Deploy registers a component descriptor directly (no bundle) and runs
// resolution. The descriptor must already be validated by Parse.
func (d *DRCR) Deploy(desc *descriptor.Component) error {
	start := time.Now()
	defer func() { d.obs.RecordLatency(obs.LatDeploy, time.Since(start).Nanoseconds()) }()
	if err := d.addComponent(desc, nil); err != nil {
		return err
	}
	d.resolveDelta()
	return nil
}

// Remove destroys a component: deactivating it (and, through resolution,
// its dependents) and deleting its record.
func (d *DRCR) Remove(name string) error {
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	wasAdmitted := c.state == Active || c.state == Suspended
	if wasAdmitted {
		d.deactivateLocked(c, "component removed")
	}
	d.setStateLocked(c, Destroyed, "component removed")
	if wasAdmitted {
		d.markProviderDownLocked(c)
	}
	d.removeRecordLocked(c)
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

// Enable re-enables a disabled component (the paper's enableRTComponent).
func (d *DRCR) Enable(name string) error {
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	if c.state == Disabled {
		d.setStateLocked(c, Unsatisfied, "enabled")
		d.enqueueActLocked(name)
	}
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

// Disable deactivates (if needed) and disables a component.
func (d *DRCR) Disable(name string) error {
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	wasAdmitted := false
	switch c.state {
	case Disabled, Destroyed:
		d.mu.Unlock()
		return nil
	case Active, Suspended:
		wasAdmitted = true
		d.deactivateLocked(c, "disabled")
	}
	d.setStateLocked(c, Disabled, "disabled")
	if wasAdmitted {
		d.markProviderDownLocked(c)
	}
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

// Suspend suspends an active component through its management interface.
// The contract (budget, ports) stays admitted, so dependants remain
// satisfied; the RT task parks at its next job boundary.
func (d *DRCR) Suspend(name string) error {
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	if c.state != Active {
		st := c.state
		d.mu.Unlock()
		return fmt.Errorf("core: cannot suspend %s in state %v", name, st)
	}
	inst := c.inst
	d.setStateLocked(c, Suspended, "suspend requested")
	d.mu.Unlock()
	return inst.Suspend()
}

// Resume reactivates a suspended component.
func (d *DRCR) Resume(name string) error {
	d.mu.Lock()
	c, ok := d.comps[name]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownComponent, name)
	}
	if c.state != Suspended {
		st := c.state
		d.mu.Unlock()
		return fmt.Errorf("core: cannot resume %s in state %v", name, st)
	}
	inst := c.inst
	d.setStateLocked(c, Active, "resume requested")
	d.mu.Unlock()
	return inst.Resume()
}

// bundleChanged ingests components from starting bundles and withdraws
// them when their bundle stops or disappears.
func (d *DRCR) bundleChanged(ev osgi.BundleEvent) {
	switch ev.Type {
	case osgi.BundleStarted:
		d.adoptBundle(ev.Bundle)
	case osgi.BundleStopping, osgi.BundleStopped, osgi.BundleUninstalled:
		d.dropBundle(ev.Bundle)
	}
}

// adoptBundle parses the bundle's descriptors outside d.mu, so decoding
// holds up no other operation, then deploys them as one batch.
func (d *DRCR) adoptBundle(b *osgi.Bundle) {
	m := b.Manifest()
	if m == nil {
		return
	}
	var descs []*descriptor.Component
	for _, res := range m.DRComComponents {
		src, ok := b.Resource(res)
		if !ok {
			continue
		}
		desc, err := descriptor.Parse(src)
		if err != nil {
			continue // malformed descriptors are skipped, mirroring SCR
		}
		descs = append(descs, desc)
	}
	d.deployBatch(descs, b)
}

// DeployAll deploys a descriptor batch as one unit: every descriptor is
// installed, then one drain resolves the batch — exactly a bundle
// adoption without the bundle. The cluster's migration and evacuation
// batches land here.
func (d *DRCR) DeployAll(descs []*descriptor.Component) {
	start := time.Now()
	defer func() { d.obs.RecordLatency(obs.LatDeploy, time.Since(start).Nanoseconds()) }()
	d.deployBatch(descs, nil)
}

// deployBatch installs every descriptor, then drains once.
func (d *DRCR) deployBatch(descs []*descriptor.Component, b *osgi.Bundle) {
	for _, desc := range descs {
		_ = d.addComponent(desc, b) // duplicates are skipped
	}
	d.resolveDelta()
}

func (d *DRCR) dropBundle(b *osgi.Bundle) {
	d.mu.Lock()
	var names []string
	for name, c := range d.comps {
		if c.bundle == b {
			names = append(names, name)
		}
	}
	// Withdraw in name order, matching the order the resolution sweeps use,
	// so a multi-component bundle tears down deterministically.
	sort.Strings(names)
	for _, name := range names {
		c, ok := d.comps[name]
		if !ok {
			continue // a listener callback removed it mid-loop
		}
		wasAdmitted := c.state == Active || c.state == Suspended
		if wasAdmitted {
			d.deactivateLocked(c, "bundle "+b.SymbolicName()+" stopped")
		}
		d.setStateLocked(c, Destroyed, "bundle "+b.SymbolicName()+" stopped")
		if wasAdmitted {
			d.markProviderDownLocked(c)
		}
		d.removeRecordLocked(c)
	}
	d.mu.Unlock()
	d.resolveDelta()
}

// removeRecordLocked forgets a destroyed component: its record, its slot
// in the sorted name list, its reverse-dependency edges, and any waiting
// entry. Stale worklist entries are skipped on pop.
func (d *DRCR) removeRecordLocked(c *Component) {
	name := c.desc.Name
	delete(d.comps, name)
	d.allNames = removeName(d.allNames, name)
	for _, in := range c.desc.InPorts {
		key := keyOf(in)
		if ns := removeName(d.consIndex[key], name); len(ns) == 0 {
			delete(d.consIndex, key)
		} else {
			d.consIndex[key] = ns
		}
	}
	d.dropWaitingLocked(name)
}

func (d *DRCR) addComponent(desc *descriptor.Component, b *osgi.Bundle) error {
	if desc == nil {
		return errors.New("core: nil descriptor")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, dup := d.comps[desc.Name]; dup {
		return fmt.Errorf("core: component %q already deployed (names are globally unique)", desc.Name)
	}
	if cpuID := desc.CPU(); cpuID >= d.kernel.NumCPUs() {
		return fmt.Errorf("core: component %q pinned to cpu%d but kernel has %d CPUs",
			desc.Name, cpuID, d.kernel.NumCPUs())
	}
	c := &Component{desc: desc, bundle: b} // bindings stay nil until activation fills them
	if desc.Enabled {
		c.state = Unsatisfied
		c.setReason("deployed")
	} else {
		c.state = Disabled
		c.setReason("deployed disabled")
	}
	d.comps[desc.Name] = c
	d.allNames = insertName(d.allNames, desc.Name)
	for _, in := range desc.InPorts {
		key := keyOf(in)
		d.consIndex[key] = insertName(d.consIndex[key], desc.Name)
	}
	if c.state == Unsatisfied {
		d.addWaitingLocked(c)
		d.enqueueActLocked(desc.Name)
	}
	c.lastSpan = d.obs.Deploy(d.kernel.Now(), desc.Name, c.state.String(), c.lastReason)
	d.emitLocked(Event{
		At: d.kernel.Now(), Component: desc.Name,
		From: 0, To: c.state, Reason: c.lastReason,
	})
	return nil
}

// activateLocked instantiates the component: IPC objects for its
// outports, the hybrid RT task, and the management service.
func (d *DRCR) activateLocked(c *Component) error {
	spec, err := d.taskSpecLocked(c.desc, c.mode)
	if err != nil {
		return err
	}
	// Outport transports first, so the body can look them up.
	var createdSHM, createdBoxes []string
	rollback := func() {
		for _, n := range createdSHM {
			_ = d.kernel.IPC().DeleteSHM(n)
		}
		for _, n := range createdBoxes {
			_ = d.kernel.IPC().DeleteMailbox(n)
		}
	}
	for _, out := range c.desc.OutPorts {
		switch out.Interface {
		case descriptor.SHM:
			if _, err := d.kernel.IPC().CreateSHM(out.Name, out.Type, out.Size); err != nil {
				rollback()
				return fmt.Errorf("outport %s: %w", out.Name, err)
			}
			createdSHM = append(createdSHM, out.Name)
		case descriptor.Mailbox:
			if _, err := d.kernel.IPC().CreateMailbox(out.Name, out.Size); err != nil {
				rollback()
				return fmt.Errorf("outport %s: %w", out.Name, err)
			}
			createdBoxes = append(createdBoxes, out.Name)
		}
	}
	var body rtos.Body
	if f := d.factories[c.desc.Implementation]; f != nil {
		body = f(c.desc)
	}
	var props map[string]string
	if len(c.desc.Properties) > 0 {
		props = make(map[string]string, len(c.desc.Properties))
		for _, p := range c.desc.Properties {
			props[p.Name] = p.Value
		}
	}
	inst, err := hrc.New(hrc.Config{
		Kernel: d.kernel,
		Spec:   spec,
		Body:   body,
		Props:  props,
	})
	if err != nil {
		rollback()
		return err
	}
	if err := inst.Start(); err != nil {
		_ = inst.Close()
		rollback()
		return err
	}
	// Record inport bindings for the global view; inports the admitted
	// mode drops stay unbound.
	c.bindings = d.bindInportsLocked(c)
	c.inst = inst
	c.ownedSHM = createdSHM
	c.ownedBoxes = createdBoxes
	d.setStateLocked(c, Active, "admitted and activated")
	if c.admitVerdict != "" {
		// A stochastic contract was admitted: pin the Monte-Carlo verdict
		// in the span stream so `why` explains the probability that let it
		// in. Constant-budget components never set admitVerdict, keeping
		// legacy digests untouched.
		c.lastSpan = d.obs.AdmitVerdict(d.kernel.Now(), c.desc.Name,
			c.desc.ModeName(c.mode), c.admitVerdict, c.lastSpan)
		c.admitVerdict = ""
	}
	if c.mode > 0 {
		// Admitted below the full contract: downgrade-before-deny. The
		// span chains to the activation so `why` explains the shortfall.
		detail := "downgrade-before-deny"
		if c.admitNote != "" {
			detail += ": " + c.admitNote
		} else {
			detail += ": full contract infeasible"
		}
		c.lastSpan = d.obs.Downgrade(d.kernel.Now(), c.desc.Name,
			descriptor.FullModeName, c.desc.ModeName(c.mode), detail, c.lastSpan)
	}
	c.admitNote = ""

	d.registerMgmtLocked(c, inst)
	return nil
}

// registerMgmtLocked publishes the management service together with the
// component's properties (§2.4). Registration happens via the
// framework-level registrar: the component may belong to no bundle. A
// degraded component advertises its effective budget and current mode.
func (d *DRCR) registerMgmtLocked(c *Component, inst *hrc.Component) {
	svcProps := make(ldap.Properties, 4+len(c.desc.Properties))
	svcProps["drcom.component"] = c.desc.Name
	svcProps["drcom.type"] = string(c.desc.Kind)
	svcProps["drcom.cpuusage"] = c.desc.ModeSpec(c.mode).CPUUsage
	if c.mode > 0 {
		svcProps["drcom.mode"] = c.desc.ModeName(c.mode)
	}
	for _, p := range c.desc.Properties {
		svcProps[p.Name] = p.Value
	}
	if reg, err := d.fw.RegisterService([]string{ManagementInterface}, Management(inst), svcProps); err == nil {
		c.mgmtReg = reg
	}
}

// deactivateLocked tears the instance down and releases its transports.
func (d *DRCR) deactivateLocked(c *Component, reason string) {
	if c.mgmtReg != nil {
		_ = c.mgmtReg.Unregister()
		c.mgmtReg = nil
	}
	if c.inst != nil {
		_ = c.inst.Close()
		c.inst = nil
	}
	for _, n := range c.ownedSHM {
		_ = d.kernel.IPC().DeleteSHM(n)
	}
	for _, n := range c.ownedBoxes {
		_ = d.kernel.IPC().DeleteMailbox(n)
	}
	c.ownedSHM, c.ownedBoxes = nil, nil
	c.bindings = nil
	c.mode = 0
	c.promoHold = false
	c.admitVerdict = ""
	c.setReason(reason)
}

// bindInportsLocked builds a fresh binding map for the inports c's
// admitted mode requires (nil when it has no inports). Callers install it
// whole; the map is never written afterwards, so Info snapshots share it.
func (d *DRCR) bindInportsLocked(c *Component) map[string]string {
	if len(c.desc.InPorts) == 0 {
		return nil
	}
	b := make(map[string]string, len(c.desc.InPorts))
	for _, in := range c.desc.InPorts {
		if c.desc.RequiresInport(c.mode, in.Name) {
			b[in.Name] = d.findProviderLocked(c.desc.Name, in)
		}
	}
	return b
}

// taskSpecLocked maps a descriptor's real-time contract in service mode
// `mode` onto an RT task specification. The simulated execution cost is
// the mode's declared budget (cpuusage × period) unless the component
// carries an explicit "drcom.exectime.us" property, which pins the exec
// time across every mode (degrading changes the contract, not the work).
func (d *DRCR) taskSpecLocked(desc *descriptor.Component, mode int) (rtos.TaskSpec, error) {
	spec := rtos.TaskSpec{
		Name:       desc.Name,
		CPU:        desc.CPU(),
		Priority:   desc.Priority(),
		ExecJitter: d.opts.ExecJitter,
	}
	m := desc.ModeSpec(mode)
	switch desc.Kind {
	case descriptor.Periodic:
		spec.Type = rtos.Periodic
		spec.Period = m.Period()
		spec.ExecTime = time.Duration(m.CPUUsage * float64(spec.Period))
		// A task created mid-run starts releasing at the next period
		// boundary (rt_task_make_periodic semantics). Without the phase,
		// release index 0 would be nominally at time zero and the task
		// would burn through a catch-up burst of skipped releases.
		if now := int64(d.kernel.Now()); now > 0 {
			p := int64(spec.Period)
			spec.Phase = time.Duration((now + p - 1) / p * p)
		}
	case descriptor.Aperiodic:
		spec.Type = rtos.Aperiodic
		spec.ExecTime = d.opts.DefaultAperiodicCost
	default:
		return rtos.TaskSpec{}, fmt.Errorf("core: component %s: unknown kind %q", desc.Name, desc.Kind)
	}
	if p, ok := desc.Property("drcom.exectime.us"); ok {
		us, err := p.Int()
		if err != nil || us <= 0 {
			return rtos.TaskSpec{}, fmt.Errorf("core: component %s: bad drcom.exectime.us", desc.Name)
		}
		spec.ExecTime = time.Duration(us) * time.Microsecond
	}
	if spec.ExecTime <= 0 {
		spec.ExecTime = time.Microsecond
	}
	return spec, nil
}

// setStateLocked performs a checked Figure 1 transition and emits the
// event.
func (d *DRCR) setStateLocked(c *Component, to State, reason string) {
	from := c.state
	if from == to {
		return
	}
	if from != 0 && !CanTransition(from, to) {
		// Illegal transitions are programming errors in the runtime; keep
		// the record but scream in the event log.
		reason = fmt.Sprintf("ILLEGAL TRANSITION %v->%v: %s", from, to, reason)
	}
	c.state = to
	c.setReason(reason)
	// Keep the incremental admission view in sync before the event goes
	// out: listeners may call back into the DRCR and must see it current.
	d.noteTransitionLocked(c, from, to)
	switch to {
	case Unsatisfied, Satisfied:
		d.addWaitingLocked(c)
	default:
		d.dropWaitingLocked(c.desc.Name)
	}
	c.lastSpan = d.obs.Transition(d.kernel.Now(), c.desc.Name, from.String(), to.String(), reason, d.takeCause(c))
	d.emitLocked(Event{At: d.kernel.Now(), Component: c.desc.Name, From: from, To: to, Reason: reason})
}

func (d *DRCR) emitLocked(ev Event) {
	d.events = append(d.events, ev)
	ls := make([]func(Event), len(d.listeners))
	copy(ls, d.listeners)
	// Listeners run without the lock to allow callbacks into the DRCR.
	d.mu.Unlock()
	for _, l := range ls {
		if l != nil {
			l(ev)
		}
	}
	d.mu.Lock()
}

package core

// Reference resolution engine: the literal transcription of the paper's
// re-resolve-everything reaction to run-time change. Each pass
// deactivates every admitted component whose inports lost their
// providers, then tries to activate every waiting component, and
// runResolve loops passes to a fixed point. It is O(n²)–O(n³) under
// churn and lives here, as a test oracle, so the incremental worklist
// engine (resolve.go) can be differentially tested against it: both
// must produce identical states, events, reasons and span streams.
//
// The oracle shares the production lifecycle code, which stages
// worklist entries as it goes; each pass throws them away at its start
// and end, so the worklist never carries state from one oracle pass
// into the next. Provider queries are answered from the provider index;
// checkProviderIndex pins that index against a brute-force scan.

import (
	"testing"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// newEngine builds a DRCR that resolves with the worklist engine, or
// with the full-sweep oracle when fullSweep is set.
func newEngine(fw *osgi.Framework, k *rtos.Kernel, fullSweep bool) (*DRCR, error) {
	d, err := New(fw, k, Options{})
	if err == nil && fullSweep {
		d.resolvePass = d.resolveOnce
	}
	return d, err
}

// discardStagedLocked drops every staged worklist entry.
func (d *DRCR) discardStagedLocked() {
	d.actPending = d.actPending[:0]
	d.deactPending = d.deactPending[:0]
	clear(d.actMember)
	clear(d.deactMember)
}

// resolveOnce performs one deactivation sweep and one activation sweep.
func (d *DRCR) resolveOnce() (changed bool) {
	// Deactivation: an admitted component whose inports lost their
	// providers must go down (the Display case when Calculation stops).
	// The sweep walks a snapshot of the admitted set (sorted by name), as
	// deactivations shrink it mid-loop.
	d.mu.Lock()
	d.discardStagedLocked()
	// One reference pass = one resolution round; the sweep has no staged
	// worklists, so the depth arguments are zero.
	d.obs.ResolveRound(d.kernel.Now(), 0, 0)
	var admitted []string
	for _, name := range d.allNames {
		if c := d.comps[name]; admittedSet(c.state) {
			admitted = append(admitted, name)
		}
	}
	for _, name := range admitted {
		c, ok := d.comps[name]
		if !ok || (c.state != Active && c.state != Suspended) {
			continue
		}
		if missing := d.unsatisfiedInportLocked(c, c.mode); missing != "" {
			d.deactivateLocked(c, "inport "+missing+" lost its provider")
			d.setStateLocked(c, Unsatisfied, "inport "+missing+" lost its provider")
			changed = true
		}
	}
	names := d.sortedNamesLocked()
	d.mu.Unlock()

	// Activation: try to bring up everything whose functional constraints
	// hold and that every resolving service admits.
	for _, name := range names {
		d.mu.Lock()
		c, ok := d.comps[name]
		if !ok || (c.state != Unsatisfied && c.state != Satisfied) {
			d.mu.Unlock()
			continue
		}
		if c.revoked {
			// A revoked budget bars re-admission until RestoreBudget; the
			// lifecycle stays where the revocation left it.
			d.mu.Unlock()
			continue
		}
		modes, missing := d.feasibleModesLocked(c)
		if len(modes) == 0 {
			if c.state == Satisfied {
				d.setStateLocked(c, Unsatisfied, "inport "+missing+" unsatisfied")
				changed = true
			} else {
				c.lastReason = "inport " + missing + " unsatisfied"
			}
			d.mu.Unlock()
			continue
		}
		if c.state == Unsatisfied {
			d.setStateLocked(c, Satisfied, "functional constraints satisfied")
			changed = true
			// Chain the admission verdict to the move that enabled it,
			// mirroring the worklist engine.
			c.obsCause = c.lastSpan
		}
		view := d.viewLocked()
		desc := c.desc
		ms := append([]int(nil), modes...)
		d.mu.Unlock()

		// Consult resolving services outside the lock: customized
		// resolvers live in the service registry and may call back.
		decision, mode, note := d.admitWalk(view, desc, ms, d.consultResolversRef)
		d.mu.Lock()
		c, ok = d.comps[name]
		if !ok || c.state != Satisfied {
			d.mu.Unlock()
			continue
		}
		if !decision.Admit {
			d.noteDenyLocked(c, decision.Reason)
			d.mu.Unlock()
			continue
		}
		c.mode = mode
		c.admitNote = note
		if c.desc.Budget != nil {
			c.admitVerdict = decision.Verdict
		}
		if err := d.activateLocked(c); err != nil {
			c.mode = 0
			c.admitVerdict = ""
			c.lastReason = "activation failed: " + err.Error()
			d.mu.Unlock()
			continue
		}
		d.mu.Unlock()
		changed = true
	}

	// Best-effort promotion: once the sweep settles, let one degraded
	// component step toward its full contract; runResolve loops resolveOnce
	// to a fixed point, so every promotable component gets its turn.
	d.mu.Lock()
	if len(d.degraded) > 0 && d.promotePendingLocked(d.consultResolversRef) {
		changed = true
	}
	d.discardStagedLocked()
	d.mu.Unlock()
	return changed
}

// consultResolversRef rebuilds the resolver chain from the registry for
// every consult instead of using the event-invalidated cache.
func (d *DRCR) consultResolversRef(view policy.View, cand policy.Contract) policy.Decision {
	chain := policy.Chain{d.opts.Internal}
	for _, ref := range d.fw.ServiceReferences(policy.ServiceInterface, nil) {
		if r, ok := d.fw.Service(ref).(policy.Resolver); ok {
			chain = append(chain, r)
		}
	}
	return chain.Admit(view, cand)
}

// checkProviderIndex asserts that, for every managed component, inport
// and service mode, the provider index gives the answer a brute-force
// scan of the admitted set gives.
func checkProviderIndex(t *testing.T, d *DRCR) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, name := range d.allNames {
		c := d.comps[name]
		for _, in := range c.desc.InPorts {
			if got, want := d.findProviderLocked(name, in), d.findProviderScanLocked(name, in); got != want {
				t.Fatalf("%s inport %s: index provider %q, scan %q", name, in.Name, got, want)
			}
		}
		for m := 0; m < c.desc.NumModes(); m++ {
			if got, want := d.unsatisfiedInportLocked(c, m), d.unsatisfiedInportScanLocked(c, m); got != want {
				t.Fatalf("%s mode %d: index says %q unsatisfied, scan %q", name, m, got, want)
			}
		}
	}
}

// unsatisfiedInportScanLocked is the index-free satisfaction check for
// service mode m (dropped inports are exempt).
func (d *DRCR) unsatisfiedInportScanLocked(c *Component, mode int) string {
	for _, in := range c.desc.InPorts {
		if !c.desc.RequiresInport(mode, in.Name) {
			continue
		}
		if d.findProviderScanLocked(c.desc.Name, in) == "" {
			return in.Name
		}
	}
	return ""
}

// findProviderScanLocked walks the whole admitted set looking for a
// compatible outport and picks the first by name — the scan the provider
// index replaces.
func (d *DRCR) findProviderScanLocked(self string, in descriptor.Port) string {
	best := ""
	for i := range d.cpus {
		for _, ct := range d.cpus[i].admitted {
			if best != "" && ct.Name > best {
				break // lists are name-sorted
			}
			if ct.Name == self {
				continue
			}
			p, ok := d.comps[ct.Name]
			if !ok {
				continue
			}
			for _, out := range p.desc.OutPorts {
				if out.CanSatisfy(in) {
					best = ct.Name
					break
				}
			}
		}
	}
	if best != "" {
		return best
	}
	return d.remoteProviderLocked(in)
}

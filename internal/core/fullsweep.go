package core

// Reference resolution engine: the literal transcription of the paper's
// re-resolve-everything reaction to run-time change, selected with
// Options.FullSweepResolve. Each pass deactivates every admitted
// component whose inports lost their providers, then tries to activate
// every waiting component, looping to a fixed point. It is O(n²)–O(n³)
// under churn and exists so the incremental worklist engine (resolve.go)
// can be differentially tested and benchmarked against it: both engines
// must produce identical states, events and reasons.

import (
	"repro/internal/descriptor"
	"repro/internal/policy"
)

// resolveOnce performs one deactivation sweep and one activation sweep.
func (d *DRCR) resolveOnce() (changed bool) {
	// Deactivation: an admitted component whose inports lost their
	// providers must go down (the Display case when Calculation stops).
	// The sweep walks a snapshot of the admitted set (sorted by name), as
	// deactivations shrink it mid-loop.
	d.mu.Lock()
	// One reference pass = one resolution round; the sweep has no staged
	// worklists, so the depth arguments are zero.
	d.obs.ResolveRound(d.kernel.Now(), 0, 0)
	d.admittedScratch = d.admittedScratch[:0]
	for _, name := range d.allNames {
		if c := d.comps[name]; admittedSet(c.state) {
			d.admittedScratch = append(d.admittedScratch, name)
		}
	}
	for _, name := range d.admittedScratch {
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
		var stack [4]int
		ms := append(stack[:0], modes...)
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
			d.noteDenyLocked(c, "admission denied: "+decision.Reason)
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
	d.mu.Unlock()
	return changed
}

// consultResolversRef rebuilds the resolver chain from the registry for
// every consult, as the reference engine always did.
func (d *DRCR) consultResolversRef(view policy.View, cand policy.Contract) policy.Decision {
	chain := policy.Chain{d.opts.Internal}
	for _, ref := range d.fw.ServiceReferences(policy.ServiceInterface, nil) {
		if r, ok := d.fw.Service(ref).(policy.Resolver); ok {
			chain = append(chain, r)
		}
	}
	return chain.Admit(view, cand)
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
	// Same remote fallback as the worklist engine (shared helper), so the
	// two engines keep making identical provider choices.
	return d.remoteProviderLocked(in)
}

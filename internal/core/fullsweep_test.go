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
// checkProviderIndex pins that index against a brute-force scan, and
// the batch check's wiring and conflicts are pinned against the scans
// compileEdgesScan and typedConflictsScan (TestCompileEdgesMatchesScan).

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
	"repro/internal/rtos/ipc"
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
				c.setReason("inport " + missing + " unsatisfied")
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
			d.noteDenyLocked(c, decision.Reason, 0)
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
			c.setReason("activation failed: " + err.Error())
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
	for _, e := range d.remoteProv[keyOf(in)] {
		if e.port.CanSatisfy(in) {
			return e.name
		}
	}
	return ""
}

// scanCand is one outport a consumer inport could bind to in the batch
// check's reference scans; ext marks a provider-index entry.
type scanCand struct {
	origin string
	port   descriptor.Port
	ext    bool
}

// compileEdgesScan is the batch check's wiring table as a member ×
// outport scan: for every consumer inport it walks every enabled
// member's outports, then the indexed local providers on its topic, in
// one name order (a member first on a tie), then the remote provisions.
// It is the reference checkBatch's merged chooser must match.
func compileEdgesScan(members map[string]*descriptor.Component, names []string,
	local, remote map[portKey][]portProv) []PlanEdge {
	var edges []PlanEdge
	for _, name := range names {
		d := members[name]
		if !d.Enabled {
			continue
		}
		for _, in := range d.InPorts {
			var modes []string
			for mi := 0; mi < d.NumModes(); mi++ {
				if d.RequiresInport(mi, in.Name) {
					modes = append(modes, d.ModeName(mi))
				}
			}
			e := PlanEdge{Consumer: name, Inport: in.Name, Modes: modes}
			k := keyOf(in)
			var cands []scanCand
			for _, pn := range names {
				if pn == name || !members[pn].Enabled {
					continue
				}
				for _, out := range members[pn].OutPorts {
					if keyOf(out) == k {
						cands = append(cands, scanCand{pn, out, false})
					}
				}
			}
			for _, ep := range local[k] {
				if ep.name != name {
					cands = append(cands, scanCand{ep.name, ep.port, true})
				}
			}
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].origin < cands[j].origin })
			for _, c := range cands {
				if c.port.CanSatisfy(in) {
					e.Provider, e.External = c.origin, c.ext
					break
				}
			}
			if e.Provider == "" {
				for _, ep := range remote[k] {
					if ep.port.CanSatisfy(in) {
						e.Provider, e.External = ep.name, true
						break
					}
				}
			}
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Consumer != edges[j].Consumer {
			return edges[i].Consumer < edges[j].Consumer
		}
		return edges[i].Inport < edges[j].Inport
	})
	return edges
}

// typedConflictsScan is the typed-conflict check as a consumer ×
// candidate scan over every enabled member outport and every indexed
// provider, whatever its topic. An inport conflicts when no candidate
// satisfies it but some other candidate on its topic has a compatible
// size; the first such one — members, then local, then remote
// providers, each in name order — is reported.
func typedConflictsScan(members map[string]*descriptor.Component, names []string,
	local, remote map[portKey][]portProv) []*PortIncompatibility {
	flat := func(m map[portKey][]portProv) []portProv {
		var all []portProv
		for _, ps := range m {
			all = append(all, ps...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].name < all[j].name })
		return all
	}
	allLocal, allRemote := flat(local), flat(remote)
	var out []*PortIncompatibility
	for _, name := range names {
		d := members[name]
		if !d.Enabled {
			continue
		}
		for _, in := range d.InPorts {
			var cands []portProv
			for _, pn := range names {
				if pn == name || !members[pn].Enabled {
					continue
				}
				for _, o := range members[pn].OutPorts {
					cands = append(cands, portProv{pn, o})
				}
			}
			for _, p := range allLocal {
				if p.name != name {
					cands = append(cands, p)
				}
			}
			satisfied := false
			for _, c := range append(cands, allRemote...) {
				satisfied = satisfied || c.port.CanSatisfy(in)
			}
			if satisfied {
				continue
			}
			for _, c := range append(cands, allRemote...) {
				if c.name != name && keyOf(c.port) == keyOf(in) && c.port.Size >= in.Size {
					kind, why := c.port.ExplainTypedMismatch(in)
					out = append(out, &PortIncompatibility{
						Provider: c.name, ProviderPort: c.port.Name,
						Consumer: name, ConsumerPort: in.Name,
						Kind: kind, Reason: why,
					})
					break
				}
			}
		}
	}
	return out
}

// edgeBatch generates one random batch and a provider index to check it
// against: disabled members, members that provide their own topic,
// several providers per topic at mixed sizes and transports, versioned
// and structurally typed ports, mode ladders that drop inports, CPUs
// overloaded past their bound (the check ignores budgets), and indexed
// local and remote providers, some named like members.
func edgeBatch(rng *rand.Rand) ([]*descriptor.Component, map[portKey][]portProv, map[portKey][]portProv) {
	topics := []string{"ta", "tb", "tc", "td", "te", "tf"}
	outTypes := []string{"int32[8]", "int32[4]", "struct{a:int32,b:int32}", "struct{version:byte}"}
	inTypes := []string{"int32[4]", "struct{a:int32}", "struct{version:int32}"}
	port := func(dir descriptor.Direction) descriptor.Port {
		p := descriptor.Port{
			Name:      topics[rng.Intn(len(topics))],
			Interface: descriptor.SHM,
			Type:      ipc.Integer,
			Size:      []int{4, 8, 16}[rng.Intn(3)],
			Direction: dir,
		}
		if rng.Intn(6) == 0 {
			p.Interface = descriptor.Mailbox
		}
		if rng.Intn(8) == 0 {
			p.Type = ipc.Byte
		}
		if rng.Intn(30) == 0 {
			if dir == descriptor.Out {
				p.Version = []string{"1.0.0", "2.0.0"}[rng.Intn(2)]
			} else {
				p.Version = "[1.0.0,2.0.0)"
			}
		}
		switch {
		case dir == descriptor.Out && rng.Intn(3) == 0:
			p.DataType = outTypes[rng.Intn(len(outTypes))]
		case dir == descriptor.In && rng.Intn(30) == 0:
			p.DataType = inTypes[rng.Intn(len(inTypes))]
		}
		return p
	}
	ports := func(dir descriptor.Direction, n int) []descriptor.Port {
		var ps []descriptor.Port
		seen := map[string]bool{}
		for len(ps) < n {
			p := port(dir)
			if !seen[p.Name] {
				seen[p.Name] = true
				ps = append(ps, p)
			}
		}
		return ps
	}

	n := 3 + rng.Intn(22)
	var descs []*descriptor.Component
	for _, i := range rng.Perm(n) {
		d := &descriptor.Component{
			Name:           fmt.Sprintf("m%02d", i),
			Kind:           descriptor.Periodic,
			Enabled:        rng.Intn(8) != 0,
			CPUUsage:       0.01,
			Implementation: "plan.Body",
			Periodic:       &descriptor.PeriodicSpec{FrequencyHz: 100, CPU: rng.Intn(2), Priority: 5},
			InPorts:        ports(descriptor.In, rng.Intn(3)),
			OutPorts:       ports(descriptor.Out, rng.Intn(3)),
		}
		if rng.Intn(15) == 0 {
			d.CPUUsage = 0.6
		}
		if len(d.InPorts) > 0 && rng.Intn(5) == 0 {
			d.Modes = []descriptor.Mode{{Name: "eco", CPUUsage: d.CPUUsage / 2,
				Drops: []string{d.InPorts[rng.Intn(len(d.InPorts))].Name}}}
		}
		descs = append(descs, d)
	}
	local, remote := map[portKey][]portProv{}, map[portKey][]portProv{}
	for j := rng.Intn(9); j > 0; j-- {
		p := portProv{name: fmt.Sprintf("x%d", rng.Intn(3)), port: port(descriptor.Out)}
		idx := local
		switch rng.Intn(3) {
		case 0:
			p.name = descs[rng.Intn(len(descs))].Name
		case 1:
			p.name, idx = fmt.Sprintf("r%d@n1", rng.Intn(3)), remote
		}
		k := keyOf(p.port)
		idx[k] = insertProv(idx[k], p)
	}
	return descs, local, remote
}

// TestCompileEdgesMatchesScan holds the batch check to the reference
// scans on 200 seeded random batches: a compiled batch's wiring table
// must equal the member × outport scan, and a rejected batch's conflicts
// the consumer × candidate scan.
func TestCompileEdgesMatchesScan(t *testing.T) {
	var compiled, external, selfExcluded, selfProviders int
	kinds := map[string]int{}
	for seed := int64(1); seed <= 200; seed++ {
		descs, local, remote := edgeBatch(rand.New(rand.NewSource(seed)))
		members := map[string]*descriptor.Component{}
		var names []string
		for _, d := range descs {
			members[d.Name] = d
			names = append(names, d.Name)
			for _, in := range d.InPorts {
				for _, out := range d.OutPorts {
					if keyOf(in) == keyOf(out) {
						selfProviders++
					}
				}
			}
		}
		sort.Strings(names)
		for _, ps := range local {
			for _, p := range ps {
				if _, ok := members[p.name]; ok {
					selfExcluded++
				}
			}
		}

		wantConflicts := typedConflictsScan(members, names, local, remote)
		p, err := checkBatch(descs, 2, local, remote)
		if err != nil {
			var rej *PlanRejectError
			if !errors.As(err, &rej) {
				t.Fatalf("seed %d: checkBatch = %v, want *PlanRejectError", seed, err)
			}
			if !reflect.DeepEqual(rej.Conflicts, wantConflicts) {
				t.Fatalf("seed %d: conflicts differ from the scan:\ngot:  %v\nwant: %v", seed, rej, &PlanRejectError{wantConflicts})
			}
			for _, c := range rej.Conflicts {
				kinds[c.Kind]++
			}
			continue
		}
		if len(wantConflicts) > 0 {
			t.Fatalf("seed %d: batch compiled, the scan finds %v", seed, &PlanRejectError{wantConflicts})
		}
		compiled++
		want := compileEdgesScan(members, names, local, remote)
		if !reflect.DeepEqual(p.Edges, want) {
			t.Fatalf("seed %d: indexed edges differ from the scan:\ngot:  %+v\nwant: %+v", seed, p.Edges, want)
		}
		for _, e := range p.Edges {
			if e.External {
				external++
			}
		}
	}
	// The generator must reach the cases it exists for: mostly compiled
	// batches, and rejects of both kinds.
	if compiled < 120 || compiled > 180 || kinds["version"] == 0 || kinds["structure"] == 0 ||
		external == 0 || selfExcluded == 0 || selfProviders == 0 {
		t.Fatalf("weak coverage: compiled=%d conflict kinds=%v external edges=%d member-named external providers=%d self-providers=%d",
			compiled, kinds, external, selfExcluded, selfProviders)
	}
}

package core

// The typed-port check of a descriptor batch — Beugnard et al.'s
// syntactic contract level: version ranges and structural datatypes —
// and the console's admission preview. Neither installs anything.
//
// CompilePlan checks a batch against the live provider index before
// System.DeployBundle installs it and before the cluster leader ships an
// evacuation batch; its wiring table is what the console's `plan`
// command renders. Each inport's provider is chosen by chooseProvider,
// the rule findProviderLocked binds by. A rejection is raised only for a
// *typed* conflict: some provider speaks the consumer's topic at a
// compatible size but every such candidate fails the version-range or
// structural datatype check, so the inport can never bind while those
// are the only speakers. A merely absent provider is not an error (the
// component waits, exactly like declarative services), and untyped size
// mismatches keep their wait semantics.
//
// DryAdmit is the console's admission preview: it asks the live
// resolver chain, the same code the worklist engine runs. Deploy,
// DeployAll and bundle adoption all take the one deploy path: install
// each descriptor, then one worklist drain.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/descriptor"
)

// PlanEdge is one row of the flat wiring table: a consumer inport and
// the provider the runtime would bind it to (or "" when unbound).
type PlanEdge struct {
	Consumer string
	Inport   string
	Provider string // batch member name or indexed origin; "" if unbound
	// External is true when Provider comes from the DRCR's provider
	// index (an admitted component or a remote provision), not the batch.
	External bool
	// Modes lists the consumer's service modes that require this inport
	// (a mode's drops list exempts it).
	Modes []string
}

// Plan is a batch that passed the typed-port check.
type Plan struct {
	// Components in install (manifest resource) order.
	Components []*descriptor.Component
	// Edges is the wiring table, sorted by consumer then inport: the
	// provider each inport binds to once every enabled member is active.
	Edges []PlanEdge
	// Fallback is non-empty when the batch cannot be checked as a whole
	// (a duplicate name, a CPU pin outside the kernel); it says why, and
	// the plan carries no edges.
	Fallback string
}

// PortIncompatibility is one typed port conflict: the exact port pair
// and why the provider cannot satisfy the consumer.
type PortIncompatibility struct {
	Provider     string // component name or remote origin
	ProviderPort string
	Consumer     string
	ConsumerPort string
	Kind         string // "version" or "structure"
	Reason       string
}

func (e *PortIncompatibility) Error() string {
	return fmt.Sprintf("plan: %s.%s cannot satisfy %s.%s: %s (%s mismatch)",
		e.Provider, e.ProviderPort, e.Consumer, e.ConsumerPort, e.Reason, e.Kind)
}

// PlanRejectError aggregates every typed conflict found in a batch.
type PlanRejectError struct {
	Conflicts []*PortIncompatibility
}

func (e *PlanRejectError) Error() string {
	if len(e.Conflicts) == 1 {
		return e.Conflicts[0].Error()
	}
	msgs := make([]string, len(e.Conflicts))
	for i, c := range e.Conflicts {
		msgs[i] = c.Error()
	}
	return fmt.Sprintf("plan: %d typed port conflicts: %s", len(e.Conflicts), strings.Join(msgs, "; "))
}

// CompilePlan runs the typed-port check on a descriptor batch against the
// DRCR's CPU count and its live provider index. A typed port conflict
// returns (*PlanRejectError); System.DeployBundle surfaces it before
// anything is installed.
func (d *DRCR) CompilePlan(descs []*descriptor.Component) (*Plan, error) {
	d.mu.Lock()
	p, err := checkBatch(descs, d.kernel.NumCPUs(), d.provIndex, d.remoteProv)
	d.mu.Unlock()
	d.obs.NotePlanCompile()
	return p, err
}

// checkBatch is the typed-port check of a batch against a provider index
// (local: admitted components, remote: remote provisions; both keyed by
// topic and name-sorted). A typed port conflict returns
// (*PlanRejectError); a batch that cannot be checked as a whole returns
// a plan with Fallback set.
func checkBatch(descs []*descriptor.Component, numCPUs int, local, remote map[portKey][]portProv) (*Plan, error) {
	p := &Plan{Components: descs}
	members := map[string]*descriptor.Component{}
	names := make([]string, 0, len(descs))
	for _, d := range descs {
		if _, dup := members[d.Name]; dup {
			p.Fallback = fmt.Sprintf("duplicate component name %q", d.Name)
			return p, nil
		}
		members[d.Name] = d
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, d := range descs {
		if cpu := d.CPU(); cpu < 0 || cpu >= numCPUs {
			p.Fallback = fmt.Sprintf("component %q pinned to cpu%d but kernel has %d CPUs", d.Name, cpu, numCPUs)
			return p, nil
		}
	}

	// The enabled members' outports by topic, name-sorted.
	byKey := map[portKey][]portProv{}
	for _, name := range names {
		if d := members[name]; d.Enabled {
			for _, out := range d.OutPorts {
				k := keyOf(out)
				byKey[k] = append(byKey[k], portProv{name, out})
			}
		}
	}

	var reject PlanRejectError
	var cands []portProv
	var fromIndex []bool
	for _, name := range names {
		d := members[name]
		if !d.Enabled {
			continue
		}
		for _, in := range d.InPorts {
			k := keyOf(in)
			// Members and indexed local providers in one name order, a
			// member first on a tie.
			mem, idx := byKey[k], local[k]
			cands, fromIndex = cands[:0], fromIndex[:0]
			for len(mem) > 0 || len(idx) > 0 {
				if len(idx) == 0 || len(mem) > 0 && mem[0].name <= idx[0].name {
					cands, fromIndex, mem = append(cands, mem[0]), append(fromIndex, false), mem[1:]
				} else {
					cands, fromIndex, idx = append(cands, idx[0]), append(fromIndex, true), idx[1:]
				}
			}
			provider, at := chooseProvider(name, in, cands, remote[k])
			if provider == "" {
				if c := typedConflict(name, in, byKey[k], local[k], remote[k]); c != nil {
					reject.Conflicts = append(reject.Conflicts, c)
					continue
				}
			}
			e := PlanEdge{Consumer: name, Inport: in.Name, Provider: provider,
				External: provider != "" && (at < 0 || fromIndex[at])}
			for mi := 0; mi < d.NumModes(); mi++ {
				if d.RequiresInport(mi, in.Name) {
					e.Modes = append(e.Modes, d.ModeName(mi))
				}
			}
			p.Edges = append(p.Edges, e)
		}
	}
	if len(reject.Conflicts) > 0 {
		return nil, &reject
	}
	sort.Slice(p.Edges, func(i, j int) bool {
		if p.Edges[i].Consumer != p.Edges[j].Consumer {
			return p.Edges[i].Consumer < p.Edges[j].Consumer
		}
		return p.Edges[i].Inport < p.Edges[j].Inport
	})
	return p, nil
}

// typedConflict is called for an inport of member name that no
// provider satisfies, so every candidate on its topic at a compatible
// size fails the typed layer. It reports the first such candidate —
// batch members, then indexed local providers, then remote provisions,
// each in name order — or nil when there is none.
func typedConflict(name string, in descriptor.Port, groups ...[]portProv) *PortIncompatibility {
	for _, g := range groups {
		for i := range g {
			c := &g[i]
			if c.name == name || c.port.Size < in.Size {
				continue // untyped size mismatches keep wait semantics
			}
			kind, why := c.port.ExplainTypedMismatch(in)
			return &PortIncompatibility{
				Provider: c.name, ProviderPort: c.port.Name,
				Consumer: name, ConsumerPort: in.Name,
				Kind: kind, Reason: why,
			}
		}
	}
	return nil
}

// AdmitPreview is one component's dry-run admission verdict.
type AdmitPreview struct {
	Name string
	// Admit reports whether some declared mode was admitted; Mode names
	// it, or the cheapest mode when every one was denied.
	Admit bool
	Mode  string
	// Reason is the resolver chain's answer for Mode: the denying
	// resolver's name and reason, or the chain's admission.
	Reason string
	// Verdict is the Monte-Carlo verdict verbatim when a stochastic
	// budget decided the admission — the admit span's detail.
	Verdict string
	// Note is the first denial's reason: why the full contract fell
	// short, when a degraded mode was admitted or every mode was denied.
	Note string
}

// DryAdmit asks the live resolver chain about each descriptor, in order,
// without installing anything: one consult per declared mode against the
// current admission view, walked downgrade-before-deny exactly as the
// worklist engine walks it at deploy. Each component is asked alone —
// neither port feasibility nor the other batch members enter the answer
// — and customized resolving services see the consult exactly as at
// deploy.
func (d *DRCR) DryAdmit(descs []*descriptor.Component) []AdmitPreview {
	d.refreshChain()
	d.mu.Lock()
	view := d.viewLocked()
	d.mu.Unlock()
	out := make([]AdmitPreview, 0, len(descs))
	for _, desc := range descs {
		modes := make([]int, desc.NumModes())
		for m := range modes {
			modes[m] = m
		}
		decision, mode, note := d.admitWalk(view, desc, modes, d.consultResolvers)
		out = append(out, AdmitPreview{
			Name: desc.Name, Admit: decision.Admit, Mode: desc.ModeName(mode),
			Reason: decision.Reason, Verdict: decision.Verdict, Note: note,
		})
	}
	return out
}

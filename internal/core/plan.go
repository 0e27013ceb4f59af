package core

// Composition plans (package plan) are checked here, never applied.
// CompilePlan is the typed-conflict check behind System.DeployBundle and
// the cluster leader's evacuation batches. DryAdmit is the console's
// admission preview: it asks the live resolver chain, the same code the
// worklist engine runs. Deploy, DeployAll and bundle adoption all take
// the one deploy path: install each descriptor, then one worklist drain.

import (
	"repro/internal/descriptor"
	"repro/internal/plan"
)

// CompilePlan runs the typed-port check on a descriptor batch against the
// DRCR's CPU count and every outport admitted outside the batch. A typed
// port conflict returns (*plan.RejectError); System.DeployBundle surfaces
// it before anything is installed. The returned plan's wiring table is
// what the console's `plan` command renders.
func (d *DRCR) CompilePlan(descs []*descriptor.Component) (*plan.Plan, error) {
	d.mu.Lock()
	env := plan.Env{NumCPUs: d.kernel.NumCPUs(), Providers: d.extProvidersLocked()}
	d.mu.Unlock()
	p, err := plan.Compile(descs, env)
	d.obs.NotePlanCompile()
	return p, err
}

// extProvidersLocked lists every admitted outport outside the batch:
// the local provider index plus the remote provision index.
func (d *DRCR) extProvidersLocked() []plan.ExtProvider {
	var out []plan.ExtProvider
	for _, ps := range d.provIndex {
		for _, p := range ps {
			out = append(out, plan.ExtProvider{Origin: p.name, Port: p.port})
		}
	}
	for _, es := range d.remoteProv {
		for _, e := range es {
			out = append(out, plan.ExtProvider{Origin: e.origin, Remote: true, Port: e.port})
		}
	}
	return out
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

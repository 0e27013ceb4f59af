package core

// Composition plans (package plan) are checked and previewed here; they
// are never applied. CompilePlan is the typed-conflict check behind
// System.DeployBundle and the preview the console's plan and admit
// commands render. Deploy, DeployAll and bundle adoption all take the one
// deploy path: install each descriptor, then one worklist drain.

import (
	"repro/internal/descriptor"
	"repro/internal/plan"
	"repro/internal/policy"
)

// PlanCache returns the DRCR's compiled-plan cache.
func (d *DRCR) PlanCache() *plan.Cache { return d.planCache }

// CompilePlan compiles (or fetches from the cache) the composition plan
// for a descriptor batch against the DRCR's current view. A typed port
// conflict returns (*plan.RejectError); System.DeployBundle surfaces it
// before anything is installed. The returned plan is also what the
// console's `plan` command renders.
func (d *DRCR) CompilePlan(descs []*descriptor.Component) (*plan.Plan, error) {
	env := d.planEnv()
	key := plan.KeyOf(descs)
	if p, ok := d.planCache.Get(key); ok {
		if p.ExtFP == plan.Fingerprint(descs, env.Providers) {
			d.obs.NotePlanCacheHit()
			return p, nil
		}
	}
	p, err := plan.Compile(descs, env)
	d.obs.NotePlanCompile()
	if err != nil {
		return nil, err
	}
	d.planCache.Put(p)
	return p, nil
}

// planEnv snapshots the compile environment: CPU count, the internal
// resolver's utilization bound, the admitted view, and every outport
// admitted outside the batch (local index plus remote provisions).
func (d *DRCR) planEnv() plan.Env {
	bound := 0.0
	if u, ok := d.utilizationOnly(); ok {
		bound = u.Bound
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return plan.Env{
		NumCPUs:   d.kernel.NumCPUs(),
		Bound:     bound,
		View:      d.viewLocked(),
		Providers: d.extProvidersLocked(),
	}
}

// utilizationOnly reports whether the effective resolver chain is
// exactly the internal utilization resolver — the only chain whose
// verdicts the plan compiler can replicate bit-for-bit. Under any
// customized resolving service (possibly stateful) the preview compiles
// against the default bound.
func (d *DRCR) utilizationOnly() (policy.Utilization, bool) {
	d.refreshChain()
	d.chainMu.Lock()
	chain := d.chain
	d.chainMu.Unlock()
	if len(chain) != 1 {
		return policy.Utilization{}, false
	}
	u, ok := chain[0].(policy.Utilization)
	return u, ok
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

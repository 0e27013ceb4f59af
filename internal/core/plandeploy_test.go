package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/plan"
	"repro/internal/rtos"
)

// Whole-bundle deploy parity: the same synthetic composition DAG is
// deployed four ways — one event-path Deploy per descriptor (the legacy
// loop), one batched DeployAll with the plan fast path disabled (the
// event-path reference the plan must match byte for byte), one batched
// DeployAll that compiles and applies a fresh plan, and one that
// fast-applies a plan already sitting in a shared cache (the migration
// and redeploy case) — and the digests must agree.

// planDeploySpec sizes one whole-bundle deploy comparison.
type planDeploySpec struct {
	// Components is the approximate population size; it is rounded to
	// whole producer→relay→consumers groups (default 100).
	Components int
	// FanOut is the number of consumers per relay topic, 1..9 (default 3).
	FanOut int
	// Seed drives the simulated kernel (default 1).
	Seed int64
	// NumCPUs for the simulated kernel (default 4).
	NumCPUs int
}

func (s *planDeploySpec) applyDefaults() {
	if s.Components <= 0 {
		s.Components = 100
	}
	if s.FanOut <= 0 {
		s.FanOut = 3
	}
	if s.FanOut > 9 {
		s.FanOut = 9
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.NumCPUs <= 0 {
		s.NumCPUs = 4
	}
}

// planDeployStats reports the parity checks across the four deploys.
type planDeployStats struct {
	// Components actually built (groups × (FanOut+2)).
	Components int
	// DigestMatch confirms the plan applies (cold and warm) reproduced
	// the event-batch run bit for bit: event trace, observability
	// stream with span IDs and causes, and final states all equal.
	DigestMatch bool
	// StateMatch confirms the per-descriptor loop converged to the same
	// final states (its event interleaving legitimately differs).
	StateMatch bool
	// PlanApplied confirms the fast path actually ran on both plan runs
	// (a silent fallback would compare the event path with itself).
	PlanApplied bool
	// CacheHit confirms the warm run found the shared cache entry
	// instead of recompiling.
	CacheHit bool
}

// buildPlanPopulation renders a feasible composition DAG: producer →
// relay → FanOut consumers per group, every group admitted at full
// contract, so the whole batch plan-applies. Unlike the churn
// population there is no over-budget heavy tail — an admission-denied
// batch deliberately falls back to the event path.
func buildPlanPopulation(spec planDeploySpec) ([]*descriptor.Component, error) {
	groups := spec.Components / (spec.FanOut + 2)
	if groups < 1 {
		groups = 1
	}
	if groups > 999 {
		groups = 999
	}
	var descs []*descriptor.Component
	add := func(name, src string) error {
		c, err := descriptor.Parse(src)
		if err != nil {
			return fmt.Errorf("plan descriptor %s: %w", name, err)
		}
		descs = append(descs, c)
		return nil
	}
	for g := 0; g < groups; g++ {
		cpu := g % spec.NumCPUs
		tg := fmt.Sprintf("t%03d", g)
		ug := fmt.Sprintf("u%03d", g)
		pn := fmt.Sprintf("p%03d", g)
		rn := fmt.Sprintf("r%03d", g)
		if err := add(pn, churnXML(pn, cpu, 0.0005, nil, []string{tg})); err != nil {
			return nil, err
		}
		if err := add(rn, churnXML(rn, cpu, 0.0005, []string{tg}, []string{ug})); err != nil {
			return nil, err
		}
		for f := 0; f < spec.FanOut; f++ {
			cn := fmt.Sprintf("c%03dx%d", g, f)
			if err := add(cn, churnXML(cn, cpu, 0.0005, []string{ug}, nil)); err != nil {
				return nil, err
			}
		}
	}
	return descs, nil
}

// planDeployRun is one deploy of the population on a fresh system.
type planDeployRun struct {
	traceDigest string
	obsDigest   string
	stateDigest string
	applies     uint64
	cacheHits   uint64
}

func runPlanDeployOnce(spec planDeploySpec, descs []*descriptor.Component,
	disableFast, perDescriptor bool, cache *plan.Cache) (planDeployRun, error) {
	fw := osgi.NewFramework()
	timing := rtos.TimingModel{}
	k := rtos.NewKernel(rtos.Config{NumCPUs: spec.NumCPUs, Timing: &timing, Seed: uint64(spec.Seed)})
	d, err := New(fw, k, Options{})
	if err != nil {
		return planDeployRun{}, err
	}
	d.noPlanFastPath = disableFast
	defer d.Close()
	if cache != nil {
		d.SetPlanCache(cache)
	}

	if perDescriptor {
		// Deploy in lexicographic name order — the order bundle adoption
		// reads resources, which fronts the consumers (c…) before the
		// producers (p…) and relays (r…), so the waiting set builds up
		// and every late provider triggers cascade rounds. This is what
		// the legacy one-deploy-per-descriptor treatment actually paid.
		ordered := append([]*descriptor.Component(nil), descs...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
		for _, c := range ordered {
			if err := d.Deploy(c); err != nil {
				return planDeployRun{}, fmt.Errorf("plan deploy %s: %w", c.Name, err)
			}
		}
	} else {
		d.DeployAll(descs)
	}

	th := sha256.New()
	for _, ev := range d.Events() {
		fmt.Fprintf(th, "%d|%s|%v|%v|%s\n", int64(ev.At), ev.Component, ev.From, ev.To, ev.Reason)
	}
	sh := sha256.New()
	for _, info := range d.Components() {
		fmt.Fprintf(sh, "%s|%v|%v|%s|", info.Name, info.State, info.Revoked, info.LastReason)
		keys := make([]string, 0, len(info.Bindings))
		for k := range info.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(sh, "%s->%s,", k, info.Bindings[k])
		}
		sh.Write([]byte("\n"))
	}
	snap := d.Obs().Snapshot()
	return planDeployRun{
		traceDigest: hex.EncodeToString(th.Sum(nil)),
		obsDigest:   d.Obs().Digest(),
		stateDigest: hex.EncodeToString(sh.Sum(nil)),
		applies:     snap.Plan.Applies,
		cacheHits:   snap.Plan.CacheHits,
	}, nil
}

// runPlanDeploy deploys the same population four ways on fresh
// systems and compares.
func runPlanDeploy(spec planDeploySpec) (planDeployStats, error) {
	spec.applyDefaults()
	descs, err := buildPlanPopulation(spec)
	if err != nil {
		return planDeployStats{}, err
	}
	perDesc, err := runPlanDeployOnce(spec, descs, true, true, nil)
	if err != nil {
		return planDeployStats{}, err
	}
	batch, err := runPlanDeployOnce(spec, descs, true, false, nil)
	if err != nil {
		return planDeployStats{}, err
	}
	cold, err := runPlanDeployOnce(spec, descs, false, false, nil)
	if err != nil {
		return planDeployStats{}, err
	}
	// The warm run shares a cache another system already compiled into —
	// what a redeploy on the same node or a cluster migration target sees.
	shared := plan.NewCache()
	warmer, err := runPlanDeployOnce(spec, descs, false, false, shared)
	if err != nil {
		return planDeployStats{}, err
	}
	warm, err := runPlanDeployOnce(spec, descs, false, false, shared)
	if err != nil {
		return planDeployStats{}, err
	}
	if warmer.applies == 0 {
		return planDeployStats{}, fmt.Errorf("cache-warming run fell back to the event path")
	}

	return planDeployStats{
		Components: len(descs),
		DigestMatch: batch.traceDigest == cold.traceDigest &&
			batch.obsDigest == cold.obsDigest &&
			batch.stateDigest == cold.stateDigest &&
			batch.traceDigest == warm.traceDigest &&
			batch.obsDigest == warm.obsDigest &&
			batch.stateDigest == warm.stateDigest,
		StateMatch:  perDesc.stateDigest == batch.stateDigest,
		PlanApplied: cold.applies > 0 && warm.applies > 0,
		CacheHit:    warm.cacheHits > 0,
	}, nil
}

// The edgecluster example's bundles, grouped per node exactly as its
// console script deploys them. The XML mirrors examples/edgecluster —
// the canonical "real application" bundle set — so the plan fast path
// is smoked against descriptors that were not written for it: pinned
// CPUs, multi-mode contracts, and an aggregator whose inports are
// remote in the example and therefore stay unsatisfied leftovers here.
var edgeclusterBundles = map[string][]string{
	"n0": {`<component name="agg" desc="feed aggregator" type="periodic" cpuusage="0.35">
  <implementation bincode="edge.Agg"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <inport name="c1" interface="RTAI.SHM" type="Integer" size="4"/>
  <inport name="c2" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`},
	"n1": {`<component name="bts1" desc="cell radio 1" type="periodic" cpuusage="0.25">
  <implementation bincode="edge.BTS"/>
  <periodictask frequence="200" runoncup="0" priority="3"/>
  <outport name="c1" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`,
		`<component name="codec1" desc="transcoder" type="periodic" cpuusage="0.45">
  <implementation bincode="edge.Codec"/>
  <periodictask frequence="50" runoncup="0" priority="6"/>
</component>`},
	"n2": {`<component name="bts2" desc="cell radio 2" type="periodic" cpuusage="0.25">
  <implementation bincode="edge.BTS"/>
  <periodictask frequence="200" runoncup="0" priority="3"/>
  <outport name="c2" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`,
		`<component name="codec2" desc="transcoder" type="periodic" cpuusage="0.45">
  <implementation bincode="edge.Codec"/>
  <periodictask frequence="50" runoncup="0" priority="6"/>
</component>`},
	"n3": {`<component name="bts3" desc="cell radio 3" type="periodic" cpuusage="0.30">
  <implementation bincode="edge.BTS"/>
  <periodictask frequence="200" runoncup="0" priority="3"/>
  <outport name="c3" interface="RTAI.SHM" type="Integer" size="4"/>
  <mode name="eco" frequence="50" cpuusage="0.08"/>
</component>`,
		`<component name="bill" desc="billing collector" type="periodic" cpuusage="0.45">
  <implementation bincode="edge.Bill"/>
  <periodictask frequence="50" runoncup="0" priority="5"/>
</component>`},
}

// TestEdgeclusterBundlePlanDigest compiles and plan-applies each
// edgecluster node bundle and asserts byte-identical event traces, obs
// streams, and final states against the batched event path — the CI
// plan smoke step.
func TestEdgeclusterBundlePlanDigest(t *testing.T) {
	for node, xmls := range edgeclusterBundles {
		t.Run(node, func(t *testing.T) {
			var descs []*descriptor.Component
			for _, x := range xmls {
				c, err := descriptor.Parse(x)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				descs = append(descs, c)
			}
			spec := planDeploySpec{Components: len(descs), Seed: 21, NumCPUs: 4}
			spec.applyDefaults()
			event, err := runPlanDeployOnce(spec, descs, true, false, nil)
			if err != nil {
				t.Fatalf("event path: %v", err)
			}
			planned, err := runPlanDeployOnce(spec, descs, false, false, nil)
			if err != nil {
				t.Fatalf("plan path: %v", err)
			}
			if planned.applies == 0 {
				t.Fatalf("plan fast path fell back on the %s bundle", node)
			}
			for _, d := range []struct{ what, a, b string }{
				{"event trace", event.traceDigest, planned.traceDigest},
				{"obs stream", event.obsDigest, planned.obsDigest},
				{"final states", event.stateDigest, planned.stateDigest},
			} {
				if d.a != d.b {
					t.Errorf("%s diverged: event %s != plan %s", d.what, d.a, d.b)
				}
			}
		})
	}
}

// TestRunPlanDeployRepsParity pins the parity contract on repeated
// runs: every rep must match digests, converge the per-descriptor loop
// to the same states, apply the plan without fallback and hit the warm
// cache.
func TestRunPlanDeployRepsParity(t *testing.T) {
	for rep := 0; rep < 2; rep++ {
		st, err := runPlanDeploy(planDeploySpec{Components: 40, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, check := range []struct {
			what string
			ok   bool
		}{
			{"digest match", st.DigestMatch},
			{"state match", st.StateMatch},
			{"plan applied", st.PlanApplied},
			{"cache hit", st.CacheHit},
		} {
			if !check.ok {
				t.Errorf("rep %d: %s failed", rep, check.what)
			}
		}
	}
}

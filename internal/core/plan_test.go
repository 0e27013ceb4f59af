package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/plan"
	"repro/internal/rtos"
)

// planRig is one DRCR under plan-vs-event-path differential test.
type planRig struct {
	fw *osgi.Framework
	k  *rtos.Kernel
	d  *DRCR
}

func newPlanRig(t *testing.T, shards int, disableFastPath bool) *planRig {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 4, Timing: &noNoise, Seed: 31})
	d, err := New(fw, k, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	d.noPlanFastPath = disableFastPath
	t.Cleanup(d.Close)
	return &planRig{fw: fw, k: k, d: d}
}

// deployBundle installs and starts a bundle carrying the given descriptor
// sources in order, mirroring drcom.System.DeployBundle.
func (r *planRig) deployBundle(t *testing.T, symbolic string, srcs []string) *osgi.Bundle {
	t.Helper()
	m := manifest.New(symbolic, manifest.MustParseVersion("1.0"))
	resources := map[string]string{}
	for i, src := range srcs {
		path := fmt.Sprintf("OSGI-INF/c%02d.xml", i)
		m.DRComComponents = append(m.DRComComponents, path)
		resources[path] = src
	}
	b, err := r.fw.Install(osgi.Definition{Manifest: m, Resources: resources})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	return b
}

// planCampaign drives one rig through a deployment scenario that a
// whole-bundle fast path must replicate exactly: an external provider
// already admitted, a bundle forming a diamond DAG with a leftover
// consumer and a disabled member, a second bundle consuming across the
// bundle boundary, churn (stop/start, enable, remove), and a redeploy of
// an identical bundle that on the fast system must hit the plan cache.
func planCampaign(t *testing.T, r *planRig) {
	t.Helper()
	// An external provider deployed the classic way, already admitted
	// before any bundle arrives.
	if err := r.d.Deploy(mustParse(t, churnXML("ext", 0, 0.01, nil, []string{"base"}))); err != nil {
		t.Fatal(err)
	}

	// Bundle 1: a diamond — src feeds mid1/mid2, sink joins them — plus
	// "orph" waiting on a topic nobody provides (leftover), "root"
	// consuming the pre-deployed external provider, and a disabled member.
	disabled := strings.Replace(
		churnXML("off", 2, 0.01, nil, nil),
		`type="periodic"`, `type="periodic" enabled="false"`, 1)
	diamond := []string{
		churnXML("src", 0, 0.01, nil, []string{"ta"}),
		churnXML("mid1", 1, 0.01, []string{"ta"}, []string{"tb"}),
		churnXML("mid2", 2, 0.01, []string{"ta"}, []string{"tc"}),
		churnXML("sink", 3, 0.01, []string{"tb", "tc"}, nil),
		churnXML("orph", 1, 0.01, []string{"nowhr"}, nil),
		churnXML("root", 0, 0.01, []string{"base"}, nil),
		disabled,
	}
	b1 := r.deployBundle(t, "plan.diamond", diamond)

	// Bundle 2 consumes across the bundle boundary and feeds the orphan.
	chain := []string{
		churnXML("hub", 2, 0.01, []string{"tb"}, []string{"nowhr"}),
		churnXML("leaf", 3, 0.01, []string{"nowhr"}, nil),
	}
	b2 := r.deployBundle(t, "plan.chain", chain)

	// Churn: lifecycle ops between deploys, then teardown and an identical
	// redeploy — the fast system must serve it from the plan cache.
	if err := r.d.Enable("off"); err != nil {
		t.Fatal(err)
	}
	if err := r.d.Disable("mid2"); err != nil {
		t.Fatal(err)
	}
	if err := b2.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.d.Enable("mid2"); err != nil {
		t.Fatal(err)
	}
	// Tear both bundles down (b2 first, so no waiter outlives b1) and
	// redeploy the identical diamond on the now-quiet system: the fast
	// system must serve it straight from the plan cache.
	if err := b2.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Uninstall(); err != nil {
		t.Fatal(err)
	}
	if err := b1.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := b1.Uninstall(); err != nil {
		t.Fatal(err)
	}
	r.deployBundle(t, "plan.diamond2", diamond)

	// Bundle 3 overflows one CPU's budget mid-batch, forcing the admission
	// dry-run (fast system) and the deny path (event system) to agree that
	// only the event path can express the outcome.
	heavy := []string{
		churnXML("hvy1", 1, 0.45, nil, nil),
		churnXML("hvy2", 1, 0.45, nil, nil),
		churnXML("hvy3", 1, 0.45, nil, nil),
	}
	r.deployBundle(t, "plan.heavy", heavy)
}

// TestPlanApplyDifferential deploys identical whole-bundle campaigns on a
// fast-path system and a forced event-path system and requires
// byte-identical event logs, obs digests (span IDs and causes included),
// stream digests, and final states — at shard counts 1 and 4 — while
// asserting the fast system really exercised plan-apply and its cache.
func TestPlanApplyDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fast := newPlanRig(t, shards, false)
			slow := newPlanRig(t, shards, true)
			planCampaign(t, fast)
			planCampaign(t, slow)

			if f, s := traceDigest(fast.d.Events()), traceDigest(slow.d.Events()); f != s {
				fe, se := fast.d.Events(), slow.d.Events()
				t.Errorf("event traces diverge (fast %d events, slow %d events)", len(fe), len(se))
				for i := 0; i < len(fe) || i < len(se); i++ {
					var a, b string
					if i < len(fe) {
						a = fe[i].String()
					}
					if i < len(se) {
						b = se[i].String()
					}
					if a != b {
						t.Fatalf("first divergence at event %d:\n  fast: %s\n  slow: %s", i, a, b)
					}
				}
			}
			if f, s := fast.d.Obs().Digest(), slow.d.Obs().Digest(); f != s {
				t.Errorf("obs digests diverge: fast %s slow %s", f[:12], s[:12])
			}
			if f, s := fast.d.Obs().StreamDigest(), slow.d.Obs().StreamDigest(); f != s {
				t.Errorf("obs stream digests diverge: fast %s slow %s", f[:12], s[:12])
			}
			if f, s := stateSummary(fast.d), stateSummary(slow.d); f != s {
				t.Errorf("final states diverge:\nfast:\n%s\nslow:\n%s", f, s)
			}

			// The comparison is only meaningful if the fast path actually ran.
			snap := fast.d.Obs().Snapshot()
			if snap.Plan.Applies == 0 {
				t.Fatal("fast system never applied a plan; differential test is vacuous")
			}
			if snap.Plan.CacheHits == 0 {
				t.Fatal("identical redeploy missed the plan cache")
			}
			if slowSnap := slow.d.Obs().Snapshot(); slowSnap.Plan.Applies != 0 {
				t.Fatalf("forced event-path system applied %d plans", slowSnap.Plan.Applies)
			}
		})
	}
}

// TestPlanApplyDifferentialFullObs pins that at obs Level Full — where
// resolve-round spans consume span IDs — the fast path stands down, so
// digests trivially agree and nothing diverges.
func TestPlanApplyDifferentialFullObs(t *testing.T) {
	fast := newPlanRig(t, 1, false)
	slow := newPlanRig(t, 1, true)
	fast.d.Obs().SetLevel(obs.Full)
	slow.d.Obs().SetLevel(obs.Full)
	planCampaign(t, fast)
	planCampaign(t, slow)
	if f, s := fast.d.Obs().Digest(), slow.d.Obs().Digest(); f != s {
		t.Errorf("obs digests diverge at Full level: fast %s slow %s", f[:12], s[:12])
	}
	if snap := fast.d.Obs().Snapshot(); snap.Plan.Applies != 0 {
		t.Fatalf("fast path ran %d times at Full obs level; resolve-round spans would diverge", snap.Plan.Applies)
	}
}

// TestPlanFastPathFallsBackUnderWaiters: with a waiting consumer already
// in the runtime, a bundle deploy must take the event path (cascades can
// touch pre-existing waiters), and the fallback counter must say so.
func TestPlanFastPathFallsBackUnderWaiters(t *testing.T) {
	r := newPlanRig(t, 1, false)
	if err := r.d.Deploy(mustParse(t, churnXML("lone", 0, 0.01, []string{"gap"}, nil))); err != nil {
		t.Fatal(err)
	}
	r.deployBundle(t, "plan.filler", []string{
		churnXML("fill", 1, 0.01, nil, []string{"gap"}),
	})
	if st := stateOf(t, r.d, "lone"); st != Active {
		t.Fatalf("lone = %v after provider bundle, want ACTIVE", st)
	}
	snap := r.d.Obs().Snapshot()
	if snap.Plan.Applies != 0 {
		t.Fatalf("plan applied across a pre-existing waiter (applies=%d)", snap.Plan.Applies)
	}
	if snap.Plan.Fallbacks == 0 {
		t.Fatal("fallback not counted")
	}
}

// TestCompilePlanTypedReject: a bundle whose only topic-matching provider
// fails the consumer's version range or datatype must be rejected at
// compile time with a typed error naming the exact port pair.
func TestCompilePlanTypedReject(t *testing.T) {
	prov := `<component name="sensor" type="periodic" cpuusage="0.01">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="5"/>
	  <outport name="feed" interface="RTAI.SHM" type="Integer" size="64" version="1.2.0" datatype="struct{seq:int32}"/>
	</component>`
	cons := `<component name="filter" type="periodic" cpuusage="0.01">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="1" priority="5"/>
	  <inport name="feed" interface="RTAI.SHM" type="Integer" size="64" version="[2.0.0,3.0.0)" datatype="struct{seq:int32}"/>
	</component>`
	r := newPlanRig(t, 1, false)
	descs := []*descriptor.Component{mustParse(t, prov), mustParse(t, cons)}
	_, err := r.d.CompilePlan(descs)
	var rej *plan.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("CompilePlan = %v, want *plan.RejectError", err)
	}
	if len(rej.Conflicts) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(rej.Conflicts))
	}
	c := rej.Conflicts[0]
	if c.Provider != "sensor" || c.Consumer != "filter" || c.ProviderPort != "feed" || c.ConsumerPort != "feed" {
		t.Fatalf("conflict names wrong pair: %+v", c)
	}
	if c.Kind != "version" {
		t.Fatalf("kind = %q, want version", c.Kind)
	}
	if !strings.Contains(c.Reason, "outside required range") {
		t.Fatalf("reason = %q", c.Reason)
	}

	// Structural mismatch: provider's struct lacks the consumer's field.
	prov2 := prov
	cons2 := strings.Replace(
		strings.Replace(cons, `version="[2.0.0,3.0.0)" `, ``, 1),
		`datatype="struct{seq:int32}"`, `datatype="struct{seq:int32,ts:int32}"`, 1)
	_, err = r.d.CompilePlan([]*descriptor.Component{mustParse(t, prov2), mustParse(t, cons2)})
	if !errors.As(err, &rej) {
		t.Fatalf("structural CompilePlan = %v, want *plan.RejectError", err)
	}
	if rej.Conflicts[0].Kind != "structure" {
		t.Fatalf("kind = %q, want structure", rej.Conflicts[0].Kind)
	}

	// An absent provider is NOT a typed conflict — the consumer waits.
	p, err := r.d.CompilePlan([]*descriptor.Component{mustParse(t, cons)})
	if err != nil {
		t.Fatalf("lone consumer: %v", err)
	}
	if len(p.Leftovers) != 1 {
		t.Fatalf("leftovers = %d, want 1", len(p.Leftovers))
	}
}

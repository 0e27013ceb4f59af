package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// planRig is one DRCR under the plan-preview tests.
type planRig struct {
	fw *osgi.Framework
	k  *rtos.Kernel
	d  *DRCR
}

func newPlanRig(t *testing.T) *planRig {
	t.Helper()
	return newPlanRigWith(t, Options{})
}

// newPlanRigWith is newPlanRig with explicit DRCR options.
func newPlanRigWith(t *testing.T, opts Options) *planRig {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 4, Timing: &noNoise, Seed: 31})
	d, err := New(fw, k, opts)
	if err != nil {
		t.Fatal(err)
	}
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

// checkPreview runs the typed-port check on a batch against the live
// system — a deployable batch must pass it — then runs the operation
// that deploys the batch and holds the wiring table to what the deploy
// bound: every Edge of an ACTIVE consumer is its Info.Bindings entry.
func (r *planRig) checkPreview(t *testing.T, srcs []string, deploy func()) {
	t.Helper()
	descs := make([]*descriptor.Component, len(srcs))
	for i, src := range srcs {
		descs[i] = mustParse(t, src)
	}
	p, err := r.d.CompilePlan(descs)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	deploy()
	for _, e := range p.Edges {
		info, _ := r.d.Component(e.Consumer)
		if info.State != Active {
			continue
		}
		if got := info.Bindings[e.Inport]; got != e.Provider {
			t.Errorf("%s.%s bound to %q, plan edge names %q", e.Consumer, e.Inport, got, e.Provider)
		}
	}
}

// planCampaign drives one rig through a bundle deployment scenario,
// checking each batch's wiring table against what its deploy bound: an
// external provider already admitted, a bundle forming a diamond DAG
// with a leftover consumer and a disabled member, a second bundle
// consuming across the bundle boundary, churn (stop/start, enable,
// remove), a redeploy of an identical bundle, and a batch that
// overflows one CPU's budget.
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
	var b1 *osgi.Bundle
	r.checkPreview(t, diamond, func() { b1 = r.deployBundle(t, "plan.diamond", diamond) })

	// Bundle 2 consumes across the bundle boundary and feeds the orphan.
	chain := []string{
		churnXML("hub", 2, 0.01, []string{"tb"}, []string{"nowhr"}),
		churnXML("leaf", 3, 0.01, []string{"nowhr"}, nil),
	}
	var b2 *osgi.Bundle
	r.checkPreview(t, chain, func() { b2 = r.deployBundle(t, "plan.chain", chain) })

	// Churn: lifecycle ops between deploys, then teardown and an identical
	// redeploy.
	if err := r.d.Enable("off"); err != nil {
		t.Fatal(err)
	}
	if err := r.d.Disable("mid2"); err != nil {
		t.Fatal(err)
	}
	if err := b2.Stop(); err != nil {
		t.Fatal(err)
	}
	r.checkPreview(t, chain, func() {
		if err := b2.Start(); err != nil {
			t.Fatal(err)
		}
	})
	if err := r.d.Enable("mid2"); err != nil {
		t.Fatal(err)
	}
	// Tear both bundles down (b2 first, so no waiter outlives b1) and
	// redeploy the identical diamond on the now-quiet system.
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
	r.checkPreview(t, diamond, func() { r.deployBundle(t, "plan.diamond2", diamond) })

	// Bundle 3 overflows one CPU's budget mid-batch: the typed check
	// passes it, and the deploy denies the member that does not fit.
	heavy := []string{
		churnXML("hvy1", 1, 0.45, nil, nil),
		churnXML("hvy2", 1, 0.45, nil, nil),
		churnXML("hvy3", 1, 0.45, nil, nil),
	}
	r.checkPreview(t, heavy, func() { r.deployBundle(t, "plan.heavy", heavy) })
}

// Digests of planCampaign, recorded before the plan fast-apply was
// retired; the fast-apply and the worklist deploy path both produced
// them. The obs digest moves with the sampling level (Full adds
// resolve-round spans); the others do not.
const (
	planCampaignTrace     = "43aa0b9e193505f8186517972e256a476a1b4078ed6df835b8ce45b78868fc53"
	planCampaignObs       = "d9aacb70aedf619c0b3c3ca3c387ede5b4f05c41b4694c4bf0bbaf613a375c2d"
	planCampaignObsFull   = "40d240da081f72436f7176888d88a3c8a2070f35f7853c24a2f889d975416dcf"
	planCampaignStateHash = "95752708bb41f704ff10504ab82d9a4daececb54f361bd25fd009251f70f555a"
)

// checkPlanCampaign runs planCampaign on a fresh rig with the given
// options and sampling level: every batch's wiring table must match what
// the deploy bound (checkPreview), and the event log, obs digests and
// final states must equal the recorded goldens.
func checkPlanCampaign(t *testing.T, opts Options, level obs.Level) {
	t.Helper()
	opts.Obs = obs.NewPlane(obs.Options{Level: level})
	r := newPlanRigWith(t, opts)
	planCampaign(t, r)

	wantObs := planCampaignObs
	if level == obs.Full {
		wantObs = planCampaignObsFull
	}
	sum := sha256.Sum256([]byte(stateSummary(r.d)))
	for _, c := range []struct{ what, got, want string }{
		{"event trace", traceDigest(r.d.Events()), planCampaignTrace},
		{"obs digest", r.d.Obs().Digest(), wantObs},
		{"final states", hex.EncodeToString(sum[:]), planCampaignStateHash},
	} {
		if c.got != c.want {
			t.Errorf("level %v: %s %s, want %s", level, c.what, c.got, c.want)
		}
	}
}

// TestPlanApplyDifferential holds each batch's wiring table to what the
// one deploy path bound, and the campaign's digests to the goldens
// both former deploy paths produced. The subtests set the deprecated
// Options.Shards to 1 and 4: the field is ignored, so both must land
// on the same goldens.
func TestPlanApplyDifferential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			checkPlanCampaign(t, Options{Shards: shards}, obs.Sampled)
		})
	}
}

// TestPlanApplyDifferentialFullObs runs the same campaign at obs Level
// Full, where resolve-round spans consume span IDs, and pins the
// Full-level obs digest.
func TestPlanApplyDifferentialFullObs(t *testing.T) {
	checkPlanCampaign(t, Options{}, obs.Full)
}

// TestBundleDeployWakesPreexistingWaiter: a bundle whose member provides
// the topic a directly deployed component already waits on must wake
// that waiter in the bundle's drain. The event log, obs digest and final
// states are the ones recorded before the plan fast-apply was retired.
func TestBundleDeployWakesPreexistingWaiter(t *testing.T) {
	r := newPlanRig(t)
	if err := r.d.Deploy(mustParse(t, churnXML("lone", 0, 0.01, []string{"gap"}, nil))); err != nil {
		t.Fatal(err)
	}
	r.deployBundle(t, "plan.filler", []string{
		churnXML("fill", 1, 0.01, nil, []string{"gap"}),
	})
	if st := stateOf(t, r.d, "lone"); st != Active {
		t.Fatalf("lone = %v after provider bundle, want ACTIVE", st)
	}
	sum := sha256.Sum256([]byte(stateSummary(r.d)))
	for _, c := range []struct{ what, got, want string }{
		{"event trace", traceDigest(r.d.Events()), "8fe2fc0a8abdc237b5de51e7b816785cad7148cb2c133b9baac187f496919fdd"},
		{"obs digest", r.d.Obs().Digest(), "06c3ad10f4908adf4389a85c0d6971ba2aa1637e7fb5cc405bc0faa9e283a977"},
		{"final states", hex.EncodeToString(sum[:]), "be0eae2dc503692de5d668c71c191abd9c568e322b381a68ad331df97c243fe6"},
	} {
		if c.got != c.want {
			t.Errorf("%s %s, want %s", c.what, c.got, c.want)
		}
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
	r := newPlanRig(t)
	descs := []*descriptor.Component{mustParse(t, prov), mustParse(t, cons)}
	_, err := r.d.CompilePlan(descs)
	var rej *PlanRejectError
	if !errors.As(err, &rej) {
		t.Fatalf("CompilePlan = %v, want *PlanRejectError", err)
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
		t.Fatalf("structural CompilePlan = %v, want *PlanRejectError", err)
	}
	if rej.Conflicts[0].Kind != "structure" {
		t.Fatalf("kind = %q, want structure", rej.Conflicts[0].Kind)
	}

	// A structural mismatch on a field named version is still a
	// structural conflict: the kind comes from the failing check, not
	// from the words of its reason.
	prov3 := strings.Replace(prov, `datatype="struct{seq:int32}"`, `datatype="struct{version:int32}"`, 1)
	cons3 := strings.Replace(
		strings.Replace(cons, `version="[2.0.0,3.0.0)" `, ``, 1),
		`datatype="struct{seq:int32}"`, `datatype="struct{version:int32[2]}"`, 1)
	_, err = r.d.CompilePlan([]*descriptor.Component{mustParse(t, prov3), mustParse(t, cons3)})
	if !errors.As(err, &rej) {
		t.Fatalf("version-field CompilePlan = %v, want *PlanRejectError", err)
	}
	if c := rej.Conflicts[0]; c.Kind != "structure" || !strings.Contains(c.Reason, "structurally satisfy") {
		t.Fatalf("version-field conflict = %q (%s), want a structure mismatch", c.Reason, c.Kind)
	}

	// An absent provider is NOT a typed conflict — the consumer waits,
	// its inport unbound in the wiring table.
	p, err := r.d.CompilePlan([]*descriptor.Component{mustParse(t, cons)})
	if err != nil {
		t.Fatalf("lone consumer: %v", err)
	}
	if len(p.Edges) != 1 || p.Edges[0].Provider != "" {
		t.Fatalf("edges = %+v, want one unbound inport", p.Edges)
	}
}

// TestDryAdmitConsultsLiveChain: the dry admit asks the live resolver
// chain, customized resolving services included, and answers what the
// deploy then does. A quota resolver denies every contract over 0.2: a
// laddered component is previewed — and deployed — in its degraded
// mode, and a single-mode one is denied with the resolver's reason.
// Each deploy's admission walk hands the resolver the same candidate
// contracts the preview did.
func TestDryAdmitConsultsLiveChain(t *testing.T) {
	r := newPlanRig(t)
	var seen []policy.Contract
	quota := policy.Func{Label: "quota", F: func(_ policy.View, cand policy.Contract) policy.Decision {
		seen = append(seen, cand)
		if cand.CPUUsage > 0.2 {
			return policy.Decision{Reason: cand.Name + " over quota"}
		}
		return policy.Decision{Admit: true, Reason: "within quota"}
	}}
	if _, err := r.fw.RegisterService([]string{policy.ServiceInterface}, policy.Resolver(quota), nil); err != nil {
		t.Fatal(err)
	}
	lad := strings.Replace(churnXML("lad", 0, 0.3, nil, nil), "</component>",
		`<mode name="eco" frequence="50" cpuusage="0.1"/></component>`, 1)
	descs := []*descriptor.Component{mustParse(t, lad), mustParse(t, churnXML("big", 1, 0.3, nil, nil))}

	got := r.d.DryAdmit(descs)
	want := []AdmitPreview{
		{Name: "lad", Admit: true, Mode: "eco", Reason: "all 2 resolvers admitted lad", Note: "quota: lad over quota"},
		{Name: "big", Admit: false, Mode: descriptor.FullModeName, Reason: "quota: big over quota", Note: "quota: big over quota"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dry admit:\ngot:  %+v\nwant: %+v", got, want)
	}
	if len(r.d.Components()) != 0 {
		t.Fatal("dry admit installed a component")
	}
	// The walks: lad full then eco, big full.
	dry := map[string][]policy.Contract{"lad": seen[:2], "big": seen[2:]}
	if len(seen) != 3 {
		t.Fatalf("dry admit consults = %+v, want 3", seen)
	}

	for _, desc := range descs {
		seen = nil
		if err := r.d.Deploy(desc); err != nil {
			t.Fatal(err)
		}
		// Promotion attempts may follow the admission walk.
		walk := dry[desc.Name]
		if len(seen) < len(walk) || !reflect.DeepEqual(seen[:len(walk)], walk) {
			t.Errorf("%s: deploy consults %+v, dry admit %+v", desc.Name, seen, walk)
		}
	}
	if info, _ := r.d.Component("lad"); info.State != Active || info.ModeName != "eco" {
		t.Errorf("lad = %v in mode %q, want ACTIVE in eco", info.State, info.ModeName)
	}
	if info, _ := r.d.Component("big"); info.State != Satisfied || info.LastReason != "admission denied: "+want[1].Reason {
		t.Errorf("big = %v %q, want SATISFIED denied with %q", info.State, info.LastReason, want[1].Reason)
	}
}

// provIndexOf builds a topic-keyed, name-sorted provider index.
func provIndexOf(ps ...portProv) map[portKey][]portProv {
	m := map[portKey][]portProv{}
	for _, p := range ps {
		k := keyOf(p.port)
		m[k] = insertProv(m[k], p)
	}
	return m
}

// edgeRows renders the wiring table as consumer.inport<-provider rows,
// indexed providers marked with a trailing "*".
func edgeRows(p *Plan) string {
	var rows []string
	for _, e := range p.Edges {
		row := fmt.Sprintf("%s.%s<-%s", e.Consumer, e.Inport, e.Provider)
		if e.External {
			row += "*"
		}
		rows = append(rows, row)
	}
	return strings.Join(rows, " ")
}

// TestCheckBatchDiamondWiring pins the wiring table of a diamond DAG:
// src feeds mid1/mid2, sink joins them. Rows come in consumer/inport
// order with every member provider resolved.
func TestCheckBatchDiamondWiring(t *testing.T) {
	descs := []*descriptor.Component{
		mustParse(t, churnXML("src", 0, 0.01, nil, []string{"ta"})),
		mustParse(t, churnXML("mid1", 0, 0.01, []string{"ta"}, []string{"tb"})),
		mustParse(t, churnXML("mid2", 1, 0.01, []string{"ta"}, []string{"tc"})),
		mustParse(t, churnXML("sink", 1, 0.01, []string{"tb", "tc"}, nil)),
	}
	p, err := checkBatch(descs, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback != "" {
		t.Fatalf("fallback = %q", p.Fallback)
	}
	want := "mid1.ta<-src mid2.ta<-src sink.tb<-mid1 sink.tc<-mid2"
	if got := edgeRows(p); got != want {
		t.Fatalf("edges = %s", got)
	}
}

// TestCompileLeftoverAndExternal: an orphan consumer's inport stays
// unbound in the wiring table, and an indexed provider satisfying
// another member appears as an external edge.
func TestCompileLeftoverAndExternal(t *testing.T) {
	descs := []*descriptor.Component{
		mustParse(t, churnXML("cons", 0, 0.01, []string{"base"}, nil)),
		mustParse(t, churnXML("orph", 1, 0.01, []string{"nowhr"}, nil)),
	}
	ext := mustParse(t, churnXML("ext", 0, 0.01, nil, []string{"base"}))
	p, err := checkBatch(descs, 2, provIndexOf(portProv{"ext", ext.OutPorts[0]}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := edgeRows(p), "cons.base<-ext* orph.nowhr<-"; got != want {
		t.Fatalf("edges = %s, want %s", got, want)
	}
}

// TestCheckBatchIgnoresBudgets: a batch overflowing one CPU's budget
// passes the check with no Fallback. Admission is the resolving
// services' verdict at deploy, not the check's.
func TestCheckBatchIgnoresBudgets(t *testing.T) {
	descs := []*descriptor.Component{
		mustParse(t, churnXML("h1", 0, 0.6, nil, nil)),
		mustParse(t, churnXML("h2", 0, 0.6, nil, nil)),
	}
	p, err := checkBatch(descs, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback != "" {
		t.Fatalf("fallback = %q", p.Fallback)
	}
}

// TestCheckBatchEdgeModes: a member whose mode 0 lacks a provider but
// whose degraded mode drops that inport passes the check with no
// Fallback; its edge stays unbound and names only the mode that
// requires it.
func TestCheckBatchEdgeModes(t *testing.T) {
	eco := `  <mode name="eco" frequence="50" cpuusage="0.01" drops="gap"/>` + "\n"
	descs := []*descriptor.Component{
		mustParse(t, localXML("degr", 0, 0.02, []string{"gap"}, nil, eco)),
	}
	p, err := checkBatch(descs, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback != "" {
		t.Fatalf("fallback = %q", p.Fallback)
	}
	if len(p.Edges) != 1 || p.Edges[0].Provider != "" || strings.Join(p.Edges[0].Modes, ",") != descriptor.FullModeName {
		t.Fatalf("edges = %+v, want gap unbound and required in %s only", p.Edges, descriptor.FullModeName)
	}
}

// TestCheckBatchTracksIndex: the wiring table follows the provider
// index — an indexed provider that satisfies a batch inport binds it,
// an irrelevant one leaves it unbound, and a remote provision binds it
// when no local one does.
func TestCheckBatchTracksIndex(t *testing.T) {
	descs := []*descriptor.Component{mustParse(t, churnXML("c", 0, 0.01, []string{"base"}, nil))}
	ext := portProv{"ext", mustParse(t, churnXML("ext", 0, 0.01, nil, []string{"base"})).OutPorts[0]}
	other := portProv{"oth", mustParse(t, churnXML("oth", 0, 0.01, nil, []string{"unrel"})).OutPorts[0]}
	far := portProv{"ext@n1", ext.port}
	for _, c := range []struct {
		local, remote map[portKey][]portProv
		want          string
	}{
		{nil, nil, "c.base<-"},
		{provIndexOf(ext), nil, "c.base<-ext*"},
		{provIndexOf(other), nil, "c.base<-"},
		{nil, provIndexOf(far), "c.base<-ext@n1*"},
		{provIndexOf(ext), provIndexOf(far), "c.base<-ext*"},
	} {
		p, err := checkBatch(descs, 2, c.local, c.remote)
		if err != nil {
			t.Fatal(err)
		}
		if got := edgeRows(p); got != c.want {
			t.Fatalf("local %v remote %v: edges = %s, want %s", c.local, c.remote, got, c.want)
		}
	}
}

// TestCompileDuplicateNameFallback: duplicate names inside one batch
// cannot be checked as a whole (the engine keeps first-wins semantics).
func TestCompileDuplicateNameFallback(t *testing.T) {
	src := churnXML("dup", 0, 0.01, nil, nil)
	descs := []*descriptor.Component{mustParse(t, src), mustParse(t, src)}
	p, err := checkBatch(descs, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Fallback, "duplicate") {
		t.Fatalf("fallback = %q", p.Fallback)
	}
}

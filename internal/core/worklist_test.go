package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// churnXML builds a descriptor for the differential-churn topologies:
// periodic, tiny declared budget, SHM ports named after topics.
func churnXML(name string, cpu int, usage float64, inports, outports []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<component name=%q type="periodic" cpuusage="%g">`+"\n", name, usage)
	fmt.Fprintf(&b, `  <implementation bincode="churn.Body"/>`+"\n")
	fmt.Fprintf(&b, `  <periodictask frequence="100" runoncup="%d" priority="5"/>`+"\n", cpu)
	for _, p := range inports {
		fmt.Fprintf(&b, `  <inport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", p)
	}
	for _, p := range outports {
		fmt.Fprintf(&b, `  <outport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", p)
	}
	b.WriteString(`</component>`)
	return b.String()
}

// churnRig is one DRCR under differential test, with its own stateful
// customized resolving service (mirroring internal/fault's flap
// resolver, which toggles a denied set and calls bare Resolve).
type churnRig struct {
	fw     *osgi.Framework
	d      *DRCR
	denied map[string]bool
}

func newChurnRig(t *testing.T, fullSweep bool) *churnRig {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 4, Timing: &noNoise, Seed: 99})
	d, err := newEngine(fw, k, fullSweep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	r := &churnRig{fw: fw, d: d, denied: map[string]bool{}}
	flap := policy.Func{Label: "flap", F: func(_ policy.View, cand policy.Contract) policy.Decision {
		if r.denied[cand.Name] {
			return policy.Decision{Admit: false, Reason: "flapped off"}
		}
		return policy.Decision{Admit: true, Reason: "flap ok"}
	}}
	if _, err := fw.RegisterService([]string{policy.ServiceInterface}, policy.Resolver(flap), nil); err != nil {
		t.Fatal(err)
	}
	return r
}

// traceDigest hashes the full ordered event log.
func traceDigest(evs []Event) string {
	h := sha256.New()
	for _, ev := range evs {
		fmt.Fprintf(h, "%d|%s|%v|%v|%s\n", int64(ev.At), ev.Component, ev.From, ev.To, ev.Reason)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stateSummary renders the final component states canonically.
func stateSummary(d *DRCR) string {
	var b strings.Builder
	for _, info := range d.Components() {
		fmt.Fprintf(&b, "%s state=%v revoked=%v reason=%q bindings=", info.Name, info.State, info.Revoked, info.LastReason)
		keys := make([]string, 0, len(info.Bindings))
		for k := range info.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s->%s,", k, info.Bindings[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}

const (
	opToggleDeploy = iota
	opToggleEnable
	opToggleRevoke
	opToggleFlap
	opKinds
)

type churnOp struct {
	kind   int
	target string
}

// applyChurnOp executes one operation against a rig. Every branch is
// deterministic given identical rig state, so replaying the same op list
// drives both engines through the same scenario; errors (unknown names,
// duplicate deploys) are part of the scenario and ignored.
func applyChurnOp(rig *churnRig, op churnOp, descs map[string]*descriptor.Component) {
	d := rig.d
	switch op.kind {
	case opToggleDeploy:
		if _, ok := d.Component(op.target); ok {
			_ = d.Remove(op.target)
		} else {
			_ = d.Deploy(descs[op.target])
		}
	case opToggleEnable:
		if info, ok := d.Component(op.target); ok {
			if info.State == Disabled {
				_ = d.Enable(op.target)
			} else {
				_ = d.Disable(op.target)
			}
		}
	case opToggleRevoke:
		if info, ok := d.Component(op.target); ok {
			if info.Revoked {
				_ = d.RestoreBudget(op.target)
			} else {
				_ = d.RevokeBudget(op.target, "differential churn")
			}
		}
	case opToggleFlap:
		// The stateful customized resolver changes its answer, then the
		// caller runs a bare Resolve — exactly internal/fault's pattern.
		rig.denied[op.target] = !rig.denied[op.target]
		d.Resolve()
	}
}

// buildChurnTopology creates producer→relay→consumers groups plus a tail
// of heavy components that overflow the budget, so the storm exercises
// port cascades, admission denials and re-admissions together.
func buildChurnTopology(t *testing.T, groups, fanout, heavy int) (map[string]*descriptor.Component, []string) {
	t.Helper()
	descs := map[string]*descriptor.Component{}
	var names []string
	add := func(name, src string) {
		c, err := descriptor.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		descs[name] = c
		names = append(names, name)
	}
	for g := 0; g < groups; g++ {
		cpu := g % 4
		tg := fmt.Sprintf("t%02d", g)
		ug := fmt.Sprintf("u%02d", g)
		add(fmt.Sprintf("p%02d", g), churnXML(fmt.Sprintf("p%02d", g), cpu, 0.002, nil, []string{tg}))
		add(fmt.Sprintf("r%02d", g), churnXML(fmt.Sprintf("r%02d", g), cpu, 0.002, []string{tg}, []string{ug}))
		for f := 0; f < fanout; f++ {
			n := fmt.Sprintf("c%02dx%01d", g, f)
			add(n, churnXML(n, cpu, 0.002, []string{ug}, nil))
		}
	}
	for h := 0; h < heavy; h++ {
		n := fmt.Sprintf("zh%02d", h)
		add(n, churnXML(n, h%4, 0.45, nil, nil))
	}
	return descs, names
}

// TestDifferentialRandomChurn replays seeded random lifecycle storms
// through the full-sweep oracle and the incremental worklist engine, and
// requires bit-identical event traces and final states. After every step
// the provider index of both rigs must agree with a brute-force scan.
func TestDifferentialRandomChurn(t *testing.T) {
	descs, names := buildChurnTopology(t, 10, 3, 8)
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]churnOp, 400)
		for i := range ops {
			ops[i] = churnOp{kind: rng.Intn(opKinds), target: names[rng.Intn(len(names))]}
		}

		ref := newChurnRig(t, true)
		inc := newChurnRig(t, false)
		for _, rig := range []*churnRig{ref, inc} {
			for _, name := range names {
				_ = rig.d.Deploy(descs[name])
			}
			checkProviderIndex(t, rig.d)
			for _, op := range ops {
				applyChurnOp(rig, op, descs)
				checkProviderIndex(t, rig.d)
			}
		}

		refDigest, incDigest := traceDigest(ref.d.Events()), traceDigest(inc.d.Events())
		if refDigest != incDigest {
			refEvs, incEvs := ref.d.Events(), inc.d.Events()
			t.Errorf("seed %d: event traces diverge (ref %d events %s, inc %d events %s)",
				seed, len(refEvs), refDigest[:12], len(incEvs), incDigest[:12])
			for i := 0; i < len(refEvs) || i < len(incEvs); i++ {
				var a, b string
				if i < len(refEvs) {
					a = refEvs[i].String()
				}
				if i < len(incEvs) {
					b = incEvs[i].String()
				}
				if a != b {
					t.Fatalf("seed %d: first divergence at event %d:\n  ref: %s\n  inc: %s", seed, i, a, b)
				}
			}
		}
		if refState, incState := stateSummary(ref.d), stateSummary(inc.d); refState != incState {
			t.Errorf("seed %d: final states diverge:\nref:\n%s\ninc:\n%s", seed, refState, incState)
		}
	}
}

// TestDeepChainCascadeOrder drops the root of a 1000-deep provider chain
// (c0000 provides c0001, which provides c0002, …) by stopping its bundle
// and requires the cascade to deactivate in dependency order — each
// component goes down only after the provider it lost — and, after the
// bundle restarts, to re-admit in dependency order, without quadratic
// blow-up on the worklist engine.
func TestDeepChainCascadeOrder(t *testing.T) {
	const n = 1000
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 4, Timing: &noNoise, Seed: 5})
	d, err := New(fw, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	cname := func(i int) string { return fmt.Sprintf("c%03d", i) }
	topic := func(i int) string { return fmt.Sprintf("l%03d", i) }

	// Root lives in its own bundle so dropBundle starts the cascade.
	m := manifest.New("chain.root", manifest.MustParseVersion("1.0"))
	m.DRComComponents = []string{"OSGI-INF/root.xml"}
	b, err := fw.Install(osgi.Definition{
		Manifest: m,
		Resources: map[string]string{
			"OSGI-INF/root.xml": churnXML(cname(0), 0, 0.003, nil, []string{topic(0)}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		var outs []string
		if i < n-1 {
			outs = []string{topic(i)}
		}
		src := churnXML(cname(i), i%4, 0.003, []string{topic(i - 1)}, outs)
		if err := d.Deploy(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if st := stateOf(t, d, cname(i)); st != Active {
			t.Fatalf("%s = %v before drop, want ACTIVE", cname(i), st)
		}
	}

	d.ClearEvents()
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	downAt := make([]int, n)
	for i := range downAt {
		downAt[i] = -1
	}
	for idx, ev := range d.Events() {
		if ev.To == Unsatisfied || ev.To == Destroyed {
			var i int
			if _, err := fmt.Sscanf(ev.Component, "c%03d", &i); err == nil && downAt[i] < 0 {
				downAt[i] = idx
			}
		}
	}
	for i := 0; i < n; i++ {
		if i > 0 { // the root itself is destroyed and forgotten
			if st := stateOf(t, d, cname(i)); st != Unsatisfied {
				t.Fatalf("%s = %v after drop, want UNSATISFIED", cname(i), st)
			}
		}
		if downAt[i] < 0 {
			t.Fatalf("%s never went down", cname(i))
		}
		if i > 0 && downAt[i] < downAt[i-1] {
			t.Fatalf("%s went down (event %d) before its provider %s (event %d)",
				cname(i), downAt[i], cname(i-1), downAt[i-1])
		}
	}

	d.ClearEvents()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	upAt := make([]int, n)
	for i := range upAt {
		upAt[i] = -1
	}
	for idx, ev := range d.Events() {
		if ev.To == Active {
			var i int
			if _, err := fmt.Sscanf(ev.Component, "c%03d", &i); err == nil && upAt[i] < 0 {
				upAt[i] = idx
			}
		}
	}
	for i := 0; i < n; i++ {
		if st := stateOf(t, d, cname(i)); st != Active {
			t.Fatalf("%s = %v after re-deploy, want ACTIVE", cname(i), st)
		}
		if upAt[i] < 0 {
			t.Fatalf("%s never re-activated", cname(i))
		}
		if i > 0 && upAt[i] < upAt[i-1] {
			t.Fatalf("%s re-activated (event %d) before its provider %s (event %d)",
				cname(i), upAt[i], cname(i-1), upAt[i-1])
		}
	}
}

// TestResolveSteadyStateAllocs pins the allocation-free discipline of a
// steady-state resolve tick: with every component admitted and no dirty
// work, Resolve and GlobalView must not allocate.
func TestResolveSteadyStateAllocs(t *testing.T) {
	// The observability plane rides the resolve path; the default
	// sampling level must not break the allocation discipline, and at
	// Full level an empty resolve tick emits nothing, so even the most
	// verbose level leaves the steady state alone.
	for _, level := range []obs.Level{obs.Sampled, obs.Full} {
		fw := osgi.NewFramework()
		k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 17})
		d, err := New(fw, k, Options{Obs: obs.NewPlane(obs.Options{Level: level})})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		for _, src := range []string{calcXML, displayXML} {
			if err := d.Deploy(mustParse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		if st := stateOf(t, d, "disp"); st != Active {
			t.Fatalf("disp = %v, want ACTIVE", st)
		}
		d.Resolve() // warm up: first resolve builds the resolver chain cache
		if allocs := testing.AllocsPerRun(100, func() { d.Resolve() }); allocs != 0 {
			t.Errorf("%v steady-state Resolve allocates %.1f objects per run, want 0", level, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = d.GlobalView() }); allocs != 0 {
			t.Errorf("%v steady-state GlobalView allocates %.1f objects per run, want 0", level, allocs)
		}
	}
}

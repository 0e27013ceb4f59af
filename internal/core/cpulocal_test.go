package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// localXML builds a churn descriptor like churnXML plus optional extra
// elements (mode ladders, a distribution budget).
func localXML(name string, cpu int, usage float64, inports, outports []string, extra string) string {
	src := churnXML(name, cpu, usage, inports, outports)
	return strings.Replace(src, "</component>", extra+"</component>", 1)
}

// buildCrossCPUTopology wires producer→relay→consumers groups whose
// members sit on different CPUs, so a provider leaving one CPU demotes
// admission waiters on another, plus a tail of heavy components (some
// consuming a relay's topic) that keeps standing admission waiters on
// every CPU. With ladders, every third relay and every fifth heavy
// declares a cheaper mode.
func buildCrossCPUTopology(t *testing.T, numCPUs int, ladders bool) (map[string]*descriptor.Component, []string) {
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
	ladder := func(on bool, usage string) string {
		if !ladders || !on {
			return ""
		}
		return `<mode name="eco" frequence="50" cpuusage="` + usage + `"/>`
	}
	for g := 0; g < 10; g++ {
		p, r := fmt.Sprintf("p%02d", g), fmt.Sprintf("r%02d", g)
		tg, ug := fmt.Sprintf("t%02d", g), fmt.Sprintf("u%02d", g)
		add(p, localXML(p, g%numCPUs, 0.02, nil, []string{tg}, ""))
		add(r, localXML(r, (g+1)%numCPUs, 0.02, []string{tg}, []string{ug}, ladder(g%3 == 0, "0.005")))
		for f := 0; f < 3; f++ {
			n := fmt.Sprintf("c%02dx%d", g, f)
			add(n, localXML(n, (g+2+f)%numCPUs, 0.02, []string{ug}, nil, ""))
		}
	}
	for h := 0; h < 6*numCPUs; h++ {
		// Heavy names fall on both sides of the relays' ("r…"), so port
		// cascades reach them both ahead of and behind the cursor.
		n := fmt.Sprintf("zh%02d", h)
		if h%4 < 2 {
			n = fmt.Sprintf("ah%02d", h)
		}
		var ins []string
		if h%3 == 1 {
			ins = []string{fmt.Sprintf("u%02d", h%10)}
		}
		add(n, localXML(n, h%numCPUs, 0.3, ins, nil, ladder(h%5 == 0, "0.1")))
	}
	return descs, names
}

// Operations beyond applyChurnOp's kinds.
const (
	opLocalDowngrade = opKinds + iota
	opLocalAllowPromotion
	opLocalSuspend
	opLocalKinds
)

// stochXML is a light component declaring a distribution budget; once
// admitted it flips the admission view to stochastic.
var stochXML = localXML("sdist", 1, 0.05, nil, nil, `<budget dist="normal(0.05,0.005)" p="0.9"/>`)

// TestDifferentialCPULocalRearm replays seeded multi-CPU churn with
// standing heavy waiters under three resolver chains: CPU-local only,
// with a non-local customized Func, and CPU-local with a distribution
// budget admitted, withdrawn and re-admitted mid-run.
//
// Against the reference full-sweep engine, the worklist engine must log
// identical lifecycle events and end in identical states. That check
// runs without mode ladders: the reference sweep promotes a degraded
// component after every pass, the worklist only once both worklists are
// empty, so ladders make the engines' orders differ for reasons
// unrelated to re-arming. The reference also re-consults each waiter at
// its name position in the pass that moved its CPU, so its deny spans
// land earlier than the worklist's; span digests are therefore compared
// between the per-CPU re-arm and the same verdicts through a non-local
// chain (which re-arms every waiter), with ladders, where they must
// match byte for byte, span ids and causes included. The non-local
// chain stays load-only, so both runs skip the waiters their deny memos
// cover.
func TestDifferentialCPULocalRearm(t *testing.T) {
	const numCPUs = 4
	stoch, err := descriptor.Parse(stochXML)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name     string
		nonLocal bool // register a stateful Func and toggle it (flap)
		stoch    bool // deploy / remove sdist mid-run
	}
	for _, v := range []variant{{name: "local"}, {name: "nonlocal", nonLocal: true}, {name: "stochastic", stoch: true}} {
		for _, ladders := range []bool{false, true} {
			descs, names := buildCrossCPUTopology(t, numCPUs, ladders)
			for _, seed := range []int64{3, 11, 2024} {
				rng := rand.New(rand.NewSource(seed))
				ops := make([]churnOp, 300)
				for i := range ops {
					k := rng.Intn(opLocalKinds)
					if k == opToggleFlap && !v.nonLocal {
						k = opToggleDeploy
					}
					ops[i] = churnOp{kind: k, target: names[rng.Intn(len(names))]}
				}
				// wrapped routes the customized service through nonLocalStatic,
				// with the same label and verdicts: the chain is then not
				// CPU-local, so the worklist engine re-arms every waiter, but
				// still load-only, so both runs keep the same per-processor
				// deny memo.
				run := func(fullSweep, wrapped bool) *DRCR {
					fw := osgi.NewFramework()
					k := rtos.NewKernel(rtos.Config{NumCPUs: numCPUs, Timing: &noNoise, Seed: 99})
					d, err := newEngine(fw, k, fullSweep)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(d.Close)
					rig := &churnRig{fw: fw, d: d, denied: map[string]bool{}}
					static := policy.Static{AdmitAll: true, Label: "customized"}
					var res policy.Resolver = static
					switch {
					case v.nonLocal:
						res = policy.Func{Label: "flap", F: func(_ policy.View, cand policy.Contract) policy.Decision {
							if rig.denied[cand.Name] {
								return policy.Decision{Admit: false, Reason: "flapped off"}
							}
							return policy.Decision{Admit: true, Reason: "flap ok"}
						}}
					case wrapped:
						res = nonLocalStatic{static}
					}
					if _, err := fw.RegisterService([]string{policy.ServiceInterface}, res, nil); err != nil {
						t.Fatal(err)
					}
					for _, name := range names {
						_ = d.Deploy(descs[name])
					}
					for i, op := range ops {
						if v.stoch && (i == len(ops)/4 || i == 3*len(ops)/4) {
							_ = d.Deploy(stoch)
						}
						if v.stoch && i == len(ops)/2 {
							_ = d.Remove(stoch.Name)
						}
						switch op.kind {
						case opLocalDowngrade:
							_ = d.Downgrade(op.target, "differential churn")
						case opLocalAllowPromotion:
							_ = d.AllowPromotion(op.target)
						case opLocalSuspend:
							if info, ok := d.Component(op.target); ok && info.State == Suspended {
								_ = d.Resume(op.target)
							} else {
								_ = d.Suspend(op.target)
							}
						default:
							applyChurnOp(rig, op, descs)
						}
						checkProviderIndex(t, d)
						checkWaiterIndex(t, d)
					}
					return d
				}
				label := fmt.Sprintf("%s/ladders=%v/seed %d", v.name, ladders, seed)
				inc := run(false, false)
				if !ladders {
					requireSameRun(t, label+" full-sweep vs worklist", run(true, false), inc)
				}
				if v.nonLocal {
					continue
				}
				all := run(false, true)
				requireSameRun(t, label+" re-arm-all vs per-CPU", all, inc)
				if a, b := all.Obs().Digest(), inc.Obs().Digest(); a != b {
					rs, is := all.Obs().Spans(), inc.Obs().Spans()
					for i := 0; i < len(rs) && i < len(is); i++ {
						if rs[i].String() != is[i].String() {
							for j := i - 8; j <= i+3 && j < len(rs) && j < len(is); j++ {
								t.Logf("all %d: %s", j, rs[j].String())
								t.Logf("inc %d: %s", j, is[j].String())
							}
							break
						}
					}
					t.Fatalf("%s: span digests (ids and causes) diverge", label)
				}
			}
		}
	}
}

// requireSameEvents fails unless two DRCRs logged identical lifecycle
// events.
func requireSameEvents(t *testing.T, label string, a, b *DRCR) {
	t.Helper()
	if traceDigest(a.Events()) == traceDigest(b.Events()) {
		return
	}
	ae, be := a.Events(), b.Events()
	for i := 0; i < len(ae) || i < len(be); i++ {
		var x, y string
		if i < len(ae) {
			x = ae[i].String()
		}
		if i < len(be) {
			y = be[i].String()
		}
		if x != y {
			t.Fatalf("%s: first event divergence at %d:\n  %s\n  %s", label, i, x, y)
		}
	}
}

// nonLocalStatic is a policy.Static that withholds the CPULocal
// capability and keeps LoadOnly: through it only the re-arm
// rule changes.
type nonLocalStatic struct{ policy.Static }

func (nonLocalStatic) CPULocal() bool { return false }

// checkWaiterIndex asserts that the admission-waiter index holds exactly
// the waiters d.waiting implies: each processor's set its pinned
// admission waiters, the side set the activation waiters and any
// admission waiter pinned out of range, all in name order.
func checkWaiterIndex(t *testing.T, d *DRCR) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	perCPU := make([][]string, len(d.cpus))
	var side []string
	for name, c := range d.waiting {
		cpu := c.desc.CPU()
		switch {
		case c.wait == waitAdmission && cpu >= 0 && cpu < len(d.cpus):
			perCPU[cpu] = append(perCPU[cpu], name)
		case c.wait == waitAdmission || c.wait == waitActivation:
			side = append(side, name)
		}
	}
	same := func(got, want []string) bool {
		sort.Strings(want)
		return slices.Equal(got, want)
	}
	for i := range d.cpus {
		if !same(d.cpus[i].waiters, perCPU[i]) {
			t.Fatalf("cpu%d waiter index %v, d.waiting implies %v", i, d.cpus[i].waiters, perCPU[i])
		}
	}
	if !same(d.sideWaiters, side) {
		t.Fatalf("side waiter index %v, d.waiting implies %v", d.sideWaiters, side)
	}
}

// requireSameRun fails unless two DRCRs logged identical lifecycle events
// and ended in identical states.
func requireSameRun(t *testing.T, label string, a, b *DRCR) {
	t.Helper()
	requireSameEvents(t, label, a, b)
	if x, y := stateSummary(a), stateSummary(b); x != y {
		t.Fatalf("%s: final states diverge:\n%s\nvs\n%s", label, x, y)
	}
}

// countingResolver wraps the utilization resolver, counting consults per
// candidate; local sets its CPULocal answer, memo its LoadOnly answer
// (which turns the deny memo on).
type countingResolver struct {
	local bool
	memo  bool
	n     map[string]int
}

func (r *countingResolver) Name() string   { return "counting" }
func (r *countingResolver) CPULocal() bool { return r.local }
func (r *countingResolver) LoadOnly() bool { return r.memo }
func (r *countingResolver) Admit(view policy.View, cand policy.Contract) policy.Decision {
	r.n[cand.Name]++
	return policy.Utilization{}.Admit(view, cand)
}

// TestCPULocalRearmSkipsOtherCPUs: with a CPU-local chain, an admission
// waiter on CPU 0 is not re-consulted when only CPU 1's admitted set
// changes, and is when CPU 0's does; a non-local chain re-consults it on
// every change.
func TestCPULocalRearmSkipsOtherCPUs(t *testing.T) {
	for _, local := range []bool{true, false} {
		r := &countingResolver{local: local, n: map[string]int{}}
		fw := osgi.NewFramework()
		k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 7})
		d, err := New(fw, k, Options{Internal: r})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		deploy := func(name string, cpu int, usage float64) {
			t.Helper()
			if err := d.Deploy(mustParse(t, churnXML(name, cpu, usage, nil, nil))); err != nil {
				t.Fatal(err)
			}
		}
		deploy("hog0", 0, 0.9)
		deploy("wait0", 0, 0.5) // denied: a standing waiter on CPU 0
		if st := stateOf(t, d, "wait0"); st != Satisfied {
			t.Fatalf("wait0 = %v, want SATISFIED (denied)", st)
		}
		before := r.n["wait0"]
		deploy("x1", 1, 0.1)
		if err := d.Remove("x1"); err != nil {
			t.Fatal(err)
		}
		want := before
		if !local {
			want += 2 // one re-consult per admitted-set change
		}
		if got := r.n["wait0"]; got != want {
			t.Fatalf("local=%v: wait0 consulted %d times after CPU 1 changes, want %d", local, got, want)
		}
		deploy("y0", 0, 0.05)
		if got := r.n["wait0"]; got != want+1 {
			t.Fatalf("local=%v: wait0 consulted %d times after a CPU 0 change, want %d", local, got, want+1)
		}
	}
}

// TestGlobalViewSharesUnchangedCPUs: a snapshot taken after a change on
// CPU 1 shares CPU 0's contract list with the previous one, and an
// append to an OnCPU result never shows in a later snapshot.
func TestGlobalViewSharesUnchangedCPUs(t *testing.T) {
	_, _, d := newRig(t)
	for _, src := range []string{calcXML, churnXML("a0", 0, 0.1, nil, nil)} {
		if err := d.Deploy(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	first := d.GlobalView()
	grown := append(first.OnCPU(0), policy.Contract{Name: "zz", CPU: 0, CPUUsage: 0.5})
	if err := d.Deploy(mustParse(t, churnXML("b1", 1, 0.1, nil, nil))); err != nil {
		t.Fatal(err)
	}
	later := d.GlobalView()
	if later.Epoch == first.Epoch || len(admitted(later)) != 3 || len(grown) != 3 {
		t.Fatalf("later view epoch %d (first %d), %d contracts", later.Epoch, first.Epoch, len(admitted(later)))
	}
	on0 := later.OnCPU(0)
	if len(on0) != 2 || on0[0].Name != "a0" || on0[1].Name != "calc" {
		t.Fatalf("later OnCPU(0) = %+v", on0)
	}
	if &on0[0] != &first.OnCPU(0)[0] {
		t.Fatal("CPU 0's unchanged list was re-copied instead of shared")
	}
	if got, want := later.Load(0), on0[0].CPUUsage+on0[1].CPUUsage; got != want {
		t.Fatalf("later Load(0) = %v", got)
	}
}

// viewProbe is a customized resolving service that admits everything and
// records the view each candidate was last consulted with.
type viewProbe struct {
	loadOnly bool
	seen     map[string]policy.View
}

func (p *viewProbe) Name() string   { return "probe" }
func (p *viewProbe) CPULocal() bool { return true }
func (p *viewProbe) LoadOnly() bool { return p.loadOnly }
func (p *viewProbe) Admit(view policy.View, cand policy.Contract) policy.Decision {
	p.seen[cand.Name] = view
	return policy.Decision{Admit: true, Reason: "probe ok"}
}

// TestLoadOnlyView: a load-only chain consulted about a constant-budget
// candidate sees no contract lists, and the epoch and per-CPU load of the
// full view at that moment. A stochastic candidate, a view with a
// distribution budget admitted, and a chain with a policy.Func member
// see the full lists.
func TestLoadOnlyView(t *testing.T) {
	fw, _, d := newRig(t)
	probe := &viewProbe{loadOnly: true, seen: map[string]policy.View{}}
	if _, err := fw.RegisterService([]string{policy.ServiceInterface}, probe, nil); err != nil {
		t.Fatal(err)
	}
	deploy := func(src string) policy.View {
		t.Helper()
		before := d.GlobalView()
		desc := mustParse(t, src)
		if err := d.Deploy(desc); err != nil {
			t.Fatal(err)
		}
		if st := stateOf(t, d, desc.Name); st != Active {
			t.Fatalf("%s = %v, want ACTIVE", desc.Name, st)
		}
		seen, ok := probe.seen[desc.Name]
		if !ok {
			t.Fatalf("%s: probe not consulted", desc.Name)
		}
		if seen.Epoch != before.Epoch || seen.NumCPUs != before.NumCPUs || seen.Stochastic != before.Stochastic {
			t.Fatalf("%s: saw epoch %d, %d CPUs, stochastic %v; full view %d, %d, %v", desc.Name,
				seen.Epoch, seen.NumCPUs, seen.Stochastic, before.Epoch, before.NumCPUs, before.Stochastic)
		}
		for cpu := 0; cpu < before.NumCPUs; cpu++ {
			if seen.Load(cpu) != before.Load(cpu) {
				t.Fatalf("%s: saw Load(%d) = %v, full view %v", desc.Name, cpu, seen.Load(cpu), before.Load(cpu))
			}
		}
		return seen
	}
	full := func(label string, seen policy.View) {
		t.Helper()
		want := len(admitted(d.GlobalView())) - 1 // the candidate itself is admitted now
		if got := len(admitted(seen)); got != want || got == 0 {
			t.Fatalf("%s: saw %d contracts, want the full %d", label, got, want)
		}
	}
	deploy(churnXML("a0", 0, 0.1, nil, nil))
	deploy(churnXML("b1", 1, 0.1, nil, nil))
	if seen := deploy(churnXML("c0", 0, 0.1, nil, nil)); len(admitted(seen)) != 0 || seen.OnCPU(0) != nil {
		t.Fatalf("load-only consult saw %d contracts, want none", len(admitted(seen)))
	}

	full("stochastic candidate", deploy(stochXML))
	full("stochastic view", deploy(churnXML("d0", 0, 0.1, nil, nil)))
	if err := d.Remove("sdist"); err != nil {
		t.Fatal(err)
	}
	if seen := deploy(churnXML("e0", 0, 0.1, nil, nil)); len(admitted(seen)) != 0 {
		t.Fatalf("load-only consult after the stochastic admission left saw %d contracts", len(admitted(seen)))
	}

	f := policy.Func{Label: "func", F: func(policy.View, policy.Contract) policy.Decision {
		return policy.Decision{Admit: true, Reason: "func ok"}
	}}
	if _, err := fw.RegisterService([]string{policy.ServiceInterface}, f, nil); err != nil {
		t.Fatal(err)
	}
	full("chain with a Func", deploy(churnXML("f1", 1, 0.1, nil, nil)))

	// A consult handed the list-free view after the chain lost LoadOnly
	// (a resolver registered between choosing the view and consulting)
	// runs over the full view.
	d.mu.Lock()
	lean := d.loadViewLocked()
	d.mu.Unlock()
	if len(admitted(lean)) != 0 {
		t.Fatalf("list-free view holds %d contracts", len(admitted(lean)))
	}
	d.consultLoadOnly(lean, policy.Contract{Name: "late", CPU: 0, CPUUsage: 0.1})
	if seen, want := len(admitted(probe.seen["late"])), len(admitted(d.GlobalView())); seen != want {
		t.Fatalf("consult after the chain lost LoadOnly saw %d contracts, want %d", seen, want)
	}
}

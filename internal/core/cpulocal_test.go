package core

import (
	"fmt"
	"math/rand"
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
// match byte for byte, span ids and causes included.
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
				// wrapped routes the customized service through a policy.Func
				// with the same label and verdicts: the chain is then not
				// CPU-local, so the worklist engine re-arms every waiter.
				run := func(fullSweep, wrapped bool) *DRCR {
					fw := osgi.NewFramework()
					k := rtos.NewKernel(rtos.Config{NumCPUs: numCPUs, Timing: &noNoise, Seed: 99})
					d, err := New(fw, k, Options{FullSweepResolve: fullSweep})
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
						res = policy.Func{Label: static.Label, F: static.Admit}
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
				if a, b := all.Obs().StreamDigest(), inc.Obs().StreamDigest(); a != b {
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
					t.Fatalf("%s: span stream digests diverge", label)
				}
				if a, b := all.Obs().Digest(), inc.Obs().Digest(); a != b {
					t.Fatalf("%s: full span digests (ids and causes) diverge", label)
				}
			}
		}
	}
}

// requireSameRun fails unless two DRCRs logged identical lifecycle events
// and ended in identical states.
func requireSameRun(t *testing.T, label string, a, b *DRCR) {
	t.Helper()
	if traceDigest(a.Events()) != traceDigest(b.Events()) {
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
	if x, y := stateSummary(a), stateSummary(b); x != y {
		t.Fatalf("%s: final states diverge:\n%s\nvs\n%s", label, x, y)
	}
}

// countingResolver wraps the utilization resolver, counting consults per
// candidate; local sets its CPULocal answer.
type countingResolver struct {
	local bool
	n     map[string]int
}

func (r *countingResolver) Name() string   { return "counting" }
func (r *countingResolver) CPULocal() bool { return r.local }
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
	if later.Epoch == first.Epoch || later.Len() != 3 || len(grown) != 3 {
		t.Fatalf("later view epoch %d (first %d), %d contracts", later.Epoch, first.Epoch, later.Len())
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

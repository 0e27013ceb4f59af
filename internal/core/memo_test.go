package core

import (
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// plainUtilization is policy.Utilization under the same name and
// reasons, declaring CPULocal but not LoadOnly: a chain with it re-arms
// exactly as with Utilization and reaches the same verdicts through the
// full view, without the deny memo. It is the differential oracle for
// the memo.
type plainUtilization struct{ policy.Utilization }

func (plainUtilization) LoadOnly() bool { return false }

// memoStateSummary renders every component's state, mode, revocation and
// bindings, canonically. Reasons are left out: a waiter the memo skips
// keeps the reason of its last consult.
func memoStateSummary(d *DRCR) string {
	var b strings.Builder
	for _, info := range d.Components() {
		fmt.Fprintf(&b, "%s %v mode=%d revoked=%v", info.Name, info.State, info.Mode, info.Revoked)
		for _, in := range sortedKeys(info.Bindings) {
			fmt.Fprintf(&b, " %s->%s", in, info.Bindings[in])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// idFreeLines splits a plane's spans into ID-free lines: the deny spans
// per component and every other span in emission order. A span's ID is
// dropped and its cause edge kept only as a marker, since the deny spans
// a memo drops shift every later ID.
func idFreeLines(p *obs.Plane) (deny map[string][]string, other []string) {
	deny = map[string][]string{}
	for _, s := range p.SpansSince(1) {
		caused := s.Cause != 0
		s.ID, s.Cause = 0, 0
		line := strings.TrimPrefix(s.String(), "#0 ")
		if caused {
			line += " <- cause"
		}
		if s.Kind == obs.KindDeny {
			deny[s.Component] = append(deny[s.Component], line)
		} else {
			other = append(other, line)
		}
	}
	return deny, other
}

// denyCount is the number of deny lines over every component.
func denyCount(deny map[string][]string) int {
	n := 0
	for _, lines := range deny {
		n += len(lines)
	}
	return n
}

// subsequenceMiss returns the index of the first element of sub that a
// greedy walk cannot match in seq, or -1 when sub is a subsequence of seq.
func subsequenceMiss(sub, seq []string) int {
	j := 0
	for _, s := range seq {
		if j < len(sub) && sub[j] == s {
			j++
		}
	}
	if j == len(sub) {
		return -1
	}
	return j
}

// checkReasonCoherence asserts that every admission waiter not barred by
// a revocation holds a denial as its LastReason, and that every denied
// component's LastReason is the detail of the deny span Why starts from.
func checkReasonCoherence(t *testing.T, label string, d *DRCR) {
	t.Helper()
	d.mu.Lock()
	for name, c := range d.waiting {
		if c.wait == waitAdmission && !c.revoked && !strings.HasPrefix(c.lastReason, deniedPrefix) {
			d.mu.Unlock()
			t.Fatalf("%s: admission waiter %s holds reason %q", label, name, c.lastReason)
		}
	}
	d.mu.Unlock()
	for _, info := range d.Components() {
		if info.State != Satisfied || !strings.HasPrefix(info.LastReason, deniedPrefix) {
			continue
		}
		chain := d.Observer().Why(info.Name)
		if len(chain) == 0 || chain[0].Kind != obs.KindDeny || chain[0].Detail != info.LastReason {
			var first string
			if len(chain) > 0 {
				first = chain[0].String()
			}
			t.Fatalf("%s: %s LastReason %q, Why starts at %q", label, info.Name, info.LastReason, first)
		}
	}
}

// reasonBound matches the bound a utilization denial names, in the
// constant form ("exceeds bound 0.800") and the Monte-Carlo one
// ("P(load≤0.800)").
var reasonBound = regexp.MustCompile(`(?:exceeds bound |P\(load≤)(\d+\.\d{3})`)

// checkReasonBounds asserts that every denied component's LastReason
// names one of the bounds of the current chain: a waiter the deny memo
// skips keeps the reason of a consult under this chain, never one under
// a chain since changed (whose resolver may be gone).
func checkReasonBounds(t *testing.T, label string, d *DRCR, bounds []string) {
	t.Helper()
	for _, info := range d.Components() {
		if info.State != Satisfied || !strings.HasPrefix(info.LastReason, deniedPrefix) {
			continue
		}
		m := reasonBound.FindStringSubmatch(info.LastReason)
		if m == nil || !slices.Contains(bounds, m[1]) {
			t.Fatalf("%s: %s LastReason %q names no bound of the current chain %v", label, info.Name, info.LastReason, bounds)
		}
	}
}

// reasonLoad matches the load figures of a utilization denial: the
// summed budget of the constant form and the probability of the
// Monte-Carlo one.
var reasonLoad = regexp.MustCompile(`(budget |\)=)\d+\.\d{3}`)

// reasonShapes renders every denied component's LastReason with its
// load figures masked: the resolver label, processor and bound a waiter
// the memo skipped still shows, while the load may be that of its last
// consult.
func reasonShapes(d *DRCR) string {
	var b strings.Builder
	for _, info := range d.Components() {
		if info.State == Satisfied && strings.HasPrefix(info.LastReason, deniedPrefix) {
			fmt.Fprintf(&b, "%s %s\n", info.Name, reasonLoad.ReplaceAllString(info.LastReason, "${1}#"))
		}
	}
	return b.String()
}

// runMemoChurn replays seeded multi-CPU churn with the given internal
// resolver: applyChurnOp's kinds (the flap kind is a bare Resolve, as no
// flap resolver is registered) plus downgrades, promotion releases and
// suspend/resume, a distribution budget deployed and removed mid-run,
// and a stricter utilization bound registered at a third of the run and
// unregistered at two thirds. It returns the DRCR and memoStateSummary
// after every operation.
func runMemoChurn(t *testing.T, internal policy.Resolver, ladders bool, seed int64) (*DRCR, []string) {
	t.Helper()
	const numCPUs = 4
	descs, names := buildCrossCPUTopology(t, numCPUs, ladders)
	stoch, err := descriptor.Parse(stochXML)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]churnOp, 300)
	for i := range ops {
		ops[i] = churnOp{kind: rng.Intn(opLocalKinds), target: names[rng.Intn(len(names))]}
	}
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: numCPUs, Timing: &noNoise, Seed: 99})
	d, err := New(fw, k, Options{Internal: internal, Obs: obs.NewPlane(obs.Options{Level: obs.Full, Capacity: 1 << 20})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	rig := &churnRig{fw: fw, d: d, denied: map[string]bool{}}
	for _, name := range names {
		_ = d.Deploy(descs[name])
	}
	var steps []string
	var strict *osgi.ServiceRegistration
	bounds := []string{"1.000"}
	for i, op := range ops {
		switch i {
		case len(ops) / 4, 3 * len(ops) / 4:
			_ = d.Deploy(stoch)
		case len(ops) / 2:
			_ = d.Remove(stoch.Name)
		}
		switch i {
		case len(ops) / 3:
			strict, err = fw.RegisterService([]string{policy.ServiceInterface}, policy.Utilization{Bound: 0.8}, nil)
			if err != nil {
				t.Fatal(err)
			}
			bounds = []string{"1.000", "0.800"}
		case 2 * len(ops) / 3:
			if err := strict.Unregister(); err != nil {
				t.Fatal(err)
			}
			bounds = []string{"1.000"}
		}
		switch op.kind {
		case opLocalDowngrade:
			_ = d.Downgrade(op.target, "memo churn")
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
		checkWaiterIndex(t, d)
		label := fmt.Sprintf("seed %d op %d", seed, i)
		checkReasonCoherence(t, label, d)
		checkReasonBounds(t, label, d, bounds)
		steps = append(steps, memoStateSummary(d))
	}
	return d, steps
}

// requireMemoEquivalent fails unless the memo run admitted, transitioned
// and bound exactly as the oracle run, emitted the same non-deny spans
// (ID-free), emitted for each component a subsequence of the deny spans
// the oracle emitted for it, and ended with every denied component's
// reason naming the resolver, processor and bound the oracle's final
// reason names. The subsequence is per component: a
// waiter skipped at one processor epoch and consulted at a later one
// with the same load renders the reason the oracle emitted at the
// skipped epoch (and then only repeated), so across components the memo
// run's deny lines can come in a different order.
func requireMemoEquivalent(t *testing.T, label string, memo, ref *DRCR, memoSteps, refSteps []string) {
	t.Helper()
	for i := range refSteps {
		if memoSteps[i] != refSteps[i] {
			t.Fatalf("%s: states diverge after op %d:\nmemo:\n%s\noracle:\n%s", label, i, memoSteps[i], refSteps[i])
		}
	}
	requireSameEvents(t, label, memo, ref)
	if x, y := reasonShapes(memo), reasonShapes(ref); x != y {
		t.Fatalf("%s: final denial reasons diverge beyond their loads:\nmemo:\n%s\noracle:\n%s", label, x, y)
	}
	md, mo := idFreeLines(memo.Obs())
	rd, ro := idFreeLines(ref.Obs())
	for i := 0; i < len(mo) || i < len(ro); i++ {
		var x, y string
		if i < len(mo) {
			x = mo[i]
		}
		if i < len(ro) {
			y = ro[i]
		}
		if x != y {
			t.Fatalf("%s: non-deny span %d diverges:\n  memo:   %s\n  oracle: %s", label, i, x, y)
		}
	}
	for name, lines := range md {
		if j := subsequenceMiss(lines, rd[name]); j >= 0 {
			t.Fatalf("%s: %s's %d memo deny spans are not a subsequence of the oracle's %d; the walk misses %d: %s",
				label, name, len(lines), len(rd[name]), j, lines[j])
		}
	}
}

// TestDifferentialDenyMemo replays seeded churn twice, through the
// load-only utilization resolver (deny memo on) and through
// plainUtilization (same verdicts and reasons, memo off), with and
// without mode ladders. The runs must agree on every state, mode and
// binding after every operation, on the Figure 1 event log and on every
// non-deny span; each component's deny spans in the memo run must be a
// subsequence of its deny spans in the oracle run, and fewer in all. A
// second scenario changes the chain from a lifecycle listener in the
// middle of a drain, after the memo proved a denial under the old chain;
// a third removes the resolver whose bound a covered waiter's reason
// names.
func TestDifferentialDenyMemo(t *testing.T) {
	for _, ladders := range []bool{false, true} {
		for _, seed := range []int64{5, 34, 2026} {
			label := fmt.Sprintf("ladders=%v/seed %d", ladders, seed)
			memo, memoSteps := runMemoChurn(t, policy.Utilization{}, ladders, seed)
			ref, refSteps := runMemoChurn(t, plainUtilization{}, ladders, seed)
			requireMemoEquivalent(t, label, memo, ref, memoSteps, refSteps)
			md, _ := idFreeLines(memo.Obs())
			rd, _ := idFreeLines(ref.Obs())
			if m, r := denyCount(md), denyCount(rd); m >= r {
				t.Fatalf("%s: memo run emitted %d deny spans, oracle %d: nothing was skipped", label, m, r)
			}
		}
	}
	t.Run("mid-drain chain change", func(t *testing.T) {
		memo, memoSteps := runMidDrainChainChange(t, policy.Utilization{})
		ref, refSteps := runMidDrainChainChange(t, plainUtilization{})
		requireMemoEquivalent(t, "mid-drain", memo, ref, memoSteps, refSteps)
		// a3 reached admission under the laxer chain ahead of a1.
		if st := stateOf(t, memo, "a3"); st != Active {
			t.Fatalf("a3 = %v, want ACTIVE", st)
		}
		if st := stateOf(t, memo, "a1"); st != Satisfied {
			t.Fatalf("a1 = %v, want SATISFIED (denied)", st)
		}
	})
	t.Run("resolver removed", func(t *testing.T) {
		memo, memoSteps := runResolverRemoved(t, policy.Utilization{})
		ref, refSteps := runResolverRemoved(t, plainUtilization{})
		requireMemoEquivalent(t, "resolver removed", memo, ref, memoSteps, refSteps)
		info, _ := memo.Component("w2")
		if want := "budget 1.050 exceeds bound 1.000"; !strings.HasSuffix(info.LastReason, want) {
			t.Fatalf("w2 LastReason %q, want the internal bound's %q", info.LastReason, want)
		}
	})
}

// runResolverRemoved: with a0, w1 and w2 denied by a strict 0.6 bound
// next to f0 on CPU 0 (w2 asks for more than w1), unregistering the
// bound re-arms all three. a0 is admitted and raises the load, then w1
// is denied by the internal bound and proves w2's denial at the new
// processor epoch. w2's reason names the strict bound, which is gone, so
// w2 must be consulted once under the new chain, not skipped.
func runResolverRemoved(t *testing.T, internal policy.Resolver) (*DRCR, []string) {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 1, Timing: &noNoise, Seed: 7})
	d, err := New(fw, k, Options{Internal: internal, Obs: obs.NewPlane(obs.Options{Level: obs.Full, Capacity: 1 << 16})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	var steps []string
	deploy := func(name string, usage float64) {
		t.Helper()
		if err := d.Deploy(mustParse(t, churnXML(name, 0, usage, nil, nil))); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, memoStateSummary(d))
	}
	deploy("f0", 0.58)
	strict, err := fw.RegisterService([]string{policy.ServiceInterface}, policy.Utilization{Bound: 0.6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deploy("a0", 0.05)
	deploy("w1", 0.4)
	deploy("w2", 0.42)
	checkReasonBounds(t, "resolver removed, strict", d, []string{"0.600"})
	if err := strict.Unregister(); err != nil {
		t.Fatal(err)
	}
	d.Resolve()
	steps = append(steps, memoStateSummary(d))
	if st := stateOf(t, d, "a0"); st != Active {
		t.Fatalf("a0 = %v, want ACTIVE", st)
	}
	checkReasonCoherence(t, "resolver removed", d)
	checkReasonBounds(t, "resolver removed", d, []string{"1.000"})
	return d, steps
}

// runMidDrainChainChange: a strict 0.9 bound denies a1 and a3 on CPU 0
// and a2 on CPU 1; a non-CPU-local customized service makes every change
// re-arm every waiter. Disabling g1 frees CPU 1, and the drain that
// follows admits a2 between a1 and a3 in one round. A listener on a2's
// activation unregisters the strict bound: a3, behind it in the round,
// is covered by CPU 0's memo from the old chain but must be consulted,
// since the chain is dirty.
func runMidDrainChainChange(t *testing.T, internal policy.Resolver) (*DRCR, []string) {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 7})
	d, err := New(fw, k, Options{Internal: internal, Obs: obs.NewPlane(obs.Options{Level: obs.Full, Capacity: 1 << 16})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	strict, err := fw.RegisterService([]string{policy.ServiceInterface}, policy.Utilization{Bound: 0.9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	custom := nonLocalStatic{policy.Static{AdmitAll: true, Label: "customized"}}
	if _, err := fw.RegisterService([]string{policy.ServiceInterface}, custom, nil); err != nil {
		t.Fatal(err)
	}
	d.AddListener(func(ev Event) {
		if ev.Component == "a2" && ev.To == Active && strict != nil {
			if err := strict.Unregister(); err != nil {
				t.Error(err)
			}
			strict = nil
		}
	})
	var steps []string
	for _, c := range []struct {
		name  string
		cpu   int
		usage float64
	}{{"f0", 0, 0.85}, {"a1", 0, 0.1}, {"a3", 0, 0.1}, {"g1", 1, 0.5}, {"a2", 1, 0.45}} {
		if err := d.Deploy(mustParse(t, churnXML(c.name, c.cpu, c.usage, nil, nil))); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, memoStateSummary(d))
	}
	if err := d.Disable("g1"); err != nil {
		t.Fatal(err)
	}
	steps = append(steps, memoStateSummary(d))
	checkReasonCoherence(t, "mid-drain", d)
	return d, steps
}

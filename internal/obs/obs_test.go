package obs

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(d) }

func TestLevelParseRoundTrip(t *testing.T) {
	for l, want := range map[Level]string{Off: "off", Sampled: "sampled", Full: "full"} {
		if got := l.String(); got != want {
			t.Fatalf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
	if Level(0) != Sampled {
		t.Fatal("the zero level must be Sampled (the default)")
	}
}

func TestEmitAssignsDenseIDs(t *testing.T) {
	p := NewPlane(Options{})
	id1 := p.Deploy(at(0), "calc", "UNSATISFIED", "deployed")
	id2 := p.Transition(at(time.Millisecond), "calc", "UNSATISFIED", "SATISFIED", "resolved", 0)
	id3 := p.Transition(at(time.Millisecond), "calc", "SATISFIED", "ACTIVE", "admitted", id2)
	if id1 != 1 || id2 != 2 || id3 != 3 {
		t.Fatalf("ids not dense: %d %d %d", id1, id2, id3)
	}
	if p.Emitted() != 3 || p.NextID() != 4 {
		t.Fatalf("Emitted=%d NextID=%d", p.Emitted(), p.NextID())
	}
	s, ok := p.Span(id3)
	if !ok || s.Cause != id2 || s.From != "SATISFIED" || s.To != "ACTIVE" {
		t.Fatalf("Span(%d) = %+v, %v", id3, s, ok)
	}
}

func TestOffLevelEmitsNothing(t *testing.T) {
	p := NewPlane(Options{Level: Off})
	if id := p.Deploy(at(0), "calc", "UNSATISFIED", ""); id != 0 {
		t.Fatalf("Off plane emitted span %d", id)
	}
	if id := p.Violation(at(0), "calc", "BudgetOverrun", "", 0); id != 0 {
		t.Fatalf("Off plane emitted span %d", id)
	}
	p.NoteDrain()
	p.ResolveRound(at(0), 3, 2)
	if p.Emitted() != 0 {
		t.Fatalf("Off plane retained %d spans", p.Emitted())
	}
	snap := p.Snapshot()
	if snap.Resolve.Drains != 0 || snap.Resolve.Rounds != 0 {
		t.Fatalf("Off plane counted resolve work: %+v", snap.Resolve)
	}
	// A nil plane is equally inert — every emit helper is nil-safe.
	var nilPlane *Plane
	if id := nilPlane.Deploy(at(0), "x", "", ""); id != 0 {
		t.Fatal("nil plane emitted")
	}
	nilPlane.PushCause(1)
	nilPlane.PopCause()
	if got := nilPlane.Snapshot().Level; got != Off.String() {
		t.Fatalf("nil plane level reads %s, want off", got)
	}
}

// The scheduler bridge is gated to Full: a bound 4-CPU kernel feeds the
// plane sched spans at Full and none at all below it.
func TestSchedBridgeGatedToFull(t *testing.T) {
	for _, level := range []Level{Off, Sampled, Full} {
		k := rtos.NewKernel(rtos.Config{Seed: 1, NumCPUs: 4})
		p := NewPlane(Options{Level: level})
		p.BindKernel(k)
		for cpu := 0; cpu < 4; cpu++ {
			task, err := k.CreateTask(rtos.TaskSpec{
				Name: "tk" + string(rune('a'+cpu)), Type: rtos.Periodic,
				Period:   time.Duration(1+cpu) * time.Millisecond,
				ExecTime: 30 * time.Microsecond, CPU: cpu,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := task.Start(); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		spans := 0
		for _, s := range p.Spans() {
			if s.Kind == KindSched {
				spans++
			}
		}
		bridged := p.Snapshot().Sched.Events
		if level == Full && (spans == 0 || bridged == 0) {
			t.Errorf("Full: kernel bridged no sched spans (%d retained, %d counted)", spans, bridged)
		}
		if level != Full && (spans != 0 || bridged != 0) {
			t.Errorf("%s: sched bridge leaked below Full (%d retained, %d counted)", level, spans, bridged)
		}
	}
}

func TestRingEviction(t *testing.T) {
	const cap = 8
	p := NewPlane(Options{Capacity: cap})
	for i := 0; i < 20; i++ {
		p.Deploy(at(time.Duration(i)*time.Millisecond), "c", "UNSATISFIED", "")
	}
	if _, ok := p.Span(1); ok {
		t.Fatal("span 1 should be evicted")
	}
	if _, ok := p.Span(12); ok {
		t.Fatal("span 12 should be evicted (20-8=12 is the eviction edge)")
	}
	if _, ok := p.Span(13); !ok {
		t.Fatal("span 13 should be retained")
	}
	spans := p.Spans()
	if len(spans) != cap {
		t.Fatalf("Spans() = %d, want %d", len(spans), cap)
	}
	if spans[0].ID != 13 || spans[cap-1].ID != 20 {
		t.Fatalf("retained window [%d..%d], want [13..20]", spans[0].ID, spans[cap-1].ID)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].ID != spans[i-1].ID+1 {
			t.Fatalf("Spans() not ordered oldest-first: %d after %d", spans[i].ID, spans[i-1].ID)
		}
	}
	if got := p.SpansSince(18); len(got) != 3 || got[0].ID != 18 {
		t.Fatalf("SpansSince(18) = %v", got)
	}
	if got := p.SpansSince(21); got != nil {
		t.Fatalf("SpansSince past the head = %v", got)
	}
}

func TestAmbientCauseStack(t *testing.T) {
	p := NewPlane(Options{})
	root := p.Violation(at(0), "calc", "BudgetOverrun", "3x budget", 0)
	p.PushCause(root)
	rev := p.Revoke(at(0), "calc", "violation")
	p.PushCause(0) // shadow: an unrelated scope must not inherit root
	orphan := p.Deploy(at(0), "other", "UNSATISFIED", "")
	p.PopCause()
	quar := p.Quarantine(at(0), "calc", 4, 0)
	p.PopCause()
	after := p.Restore(at(time.Millisecond), "calc", "")

	want := map[SpanID]SpanID{rev: root, orphan: 0, quar: root, after: 0}
	for id, cause := range want {
		s, ok := p.Span(id)
		if !ok || s.Cause != cause {
			t.Fatalf("span %d cause = %d (ok=%v), want %d", id, s.Cause, ok, cause)
		}
	}

	// Explicit causes beat the ambient one.
	p.PushCause(rev)
	exp := p.Transition(at(0), "disp", "ACTIVE", "UNSATISFIED", "cascade", quar)
	p.PopCause()
	if s, _ := p.Span(exp); s.Cause != quar {
		t.Fatalf("explicit cause overridden: %d", s.Cause)
	}

	// Overflowing the fixed stack is safe: excess pushes are dropped.
	for i := 0; i < 32; i++ {
		p.PushCause(root)
	}
	for i := 0; i < 64; i++ {
		p.PopCause()
	}
	if id := p.Deploy(at(0), "c9", "UNSATISFIED", ""); id == 0 {
		t.Fatal("plane broken after cause-stack overflow")
	}
}

func TestOpenCauses(t *testing.T) {
	p := NewPlane(Options{})
	inj := p.FaultInject(at(0), "exec-inflate", "calc", "x4.0")
	p.SetOpenCause("calc", inj)
	if got := p.OpenCause("calc"); got != inj {
		t.Fatalf("OpenCause = %d, want %d", got, inj)
	}
	if got := p.OpenCause("disp"); got != 0 {
		t.Fatalf("OpenCause on untargeted component = %d", got)
	}
	p.ClearOpenCause("calc")
	if got := p.OpenCause("calc"); got != 0 {
		t.Fatalf("OpenCause after clear = %d", got)
	}
}

func TestWhyChain(t *testing.T) {
	p := NewPlane(Options{})
	inj := p.FaultInject(at(0), "exec-inflate", "calc", "")
	vio := p.Violation(at(time.Millisecond), "calc", "BudgetOverrun", "", inj)
	rev := p.Revoke(at(time.Millisecond), "calc", "violation")
	if s, _ := p.Span(rev); s.Cause != 0 {
		t.Fatalf("revoke picked up a cause without a push: %d", s.Cause)
	}
	p.PushCause(vio)
	rev2 := p.Revoke(at(2*time.Millisecond), "calc", "violation")
	p.PopCause()
	p.Transition(at(2*time.Millisecond), "disp", "ACTIVE", "UNSATISFIED", "provider down", rev2)

	chain := p.Why("disp")
	if len(chain) != 4 {
		t.Fatalf("Why(disp) length = %d, want 4: %v", len(chain), chain)
	}
	wantKinds := []Kind{KindTransition, KindRevoke, KindViolation, KindFaultInject}
	for i, k := range wantKinds {
		if chain[i].Kind != k {
			t.Fatalf("chain[%d].Kind = %v, want %v", i, chain[i].Kind, k)
		}
	}
	// calc's latest span is rev2; its chain roots at the violation, whose
	// cause (the inject) is also live, so the full chain is 3 deep too.
	if got := p.Why("calc"); len(got) != 3 || got[2].ID != inj {
		t.Fatalf("Why(calc) = %v", got)
	}
	if got := p.Why("nobody"); got != nil {
		t.Fatalf("Why on unknown component = %v", got)
	}
}

func TestWhyStopsAtEvictedCause(t *testing.T) {
	p := NewPlane(Options{Capacity: 4})
	root := p.Violation(at(0), "calc", "BudgetOverrun", "", 0)
	for i := 0; i < 6; i++ {
		p.Deploy(at(0), "filler", "UNSATISFIED", "")
	}
	p.Transition(at(0), "disp", "ACTIVE", "UNSATISFIED", "", root)
	chain := p.Why("disp")
	if len(chain) != 1 {
		t.Fatalf("chain should stop at the evicted cause: %v", chain)
	}
}

func TestDigestDeterministicAndLevelIndependent(t *testing.T) {
	run := func(level Level) *Plane {
		p := NewPlane(Options{Level: level})
		p.Deploy(at(0), "calc", "UNSATISFIED", "deployed")
		p.ResolveRound(at(0), 1, 0) // excluded from the digest
		tr := p.Transition(at(time.Millisecond), "calc", "UNSATISFIED", "SATISFIED", "resolved", 0)
		p.Transition(at(time.Millisecond), "calc", "SATISFIED", "ACTIVE", "admitted", tr)
		p.Deny(at(2*time.Millisecond), "disp", "admission denied: cpu full", 0)
		// The degradation and supervision kinds fold into the digest too.
		dg := p.Downgrade(at(3*time.Millisecond), "calc", "full", "eco", "budget-overrun", 0)
		p.Upgrade(at(4*time.Millisecond), "calc", "eco", "full", "capacity freed", dg)
		rs := p.Restart(at(5*time.Millisecond), "zaux", 1, "crashed", 0)
		p.Escalate(at(6*time.Millisecond), "zaux", "zaux", "restart budget exhausted", rs)
		return p
	}
	a, b, full := run(Sampled), run(Sampled), run(Full)
	if a.Digest() != b.Digest() {
		t.Fatal("same emissions produced different digests")
	}
	if !slices.Equal(lifecycleLines(a), lifecycleLines(full)) {
		t.Fatal("the Full level changed a lifecycle span")
	}
	if a.Digest() == full.Digest() {
		// Full's resolve-round span consumes an ID, shifting every later
		// ID and cause edge: the full digest is per-level by design.
		t.Fatal("Digest should differ across levels once resolve-round spans consume IDs")
	}
	if full.Emitted() <= a.Emitted() {
		t.Fatal("Full level should have emitted the extra resolve-round span")
	}

	// The digest is a pure function of the emission sequence — an extra
	// span changes it.
	c := run(Sampled)
	c.Deploy(at(3*time.Millisecond), "extra", "UNSATISFIED", "")
	if c.Digest() == a.Digest() {
		t.Fatal("digest did not change with the stream")
	}

	// Digest() folds in IDs and causes. Re-running with a different cause
	// edge and the same span lines must change it.
	d := NewPlane(Options{})
	d.Deploy(at(0), "calc", "UNSATISFIED", "deployed")
	d.ResolveRound(at(0), 1, 0)
	d.Transition(at(time.Millisecond), "calc", "UNSATISFIED", "SATISFIED", "resolved", 0)
	d.Transition(at(time.Millisecond), "calc", "SATISFIED", "ACTIVE", "admitted", 0) // cause dropped
	d.Deny(at(2*time.Millisecond), "disp", "admission denied: cpu full", 0)
	d.Downgrade(at(3*time.Millisecond), "calc", "full", "eco", "budget-overrun", 0)
	d.Upgrade(at(4*time.Millisecond), "calc", "eco", "full", "capacity freed", 0) // cause dropped
	d.Restart(at(5*time.Millisecond), "zaux", 1, "crashed", 0)
	d.Escalate(at(6*time.Millisecond), "zaux", "zaux", "restart budget exhausted", 0) // cause dropped
	if !slices.Equal(lifecycleLines(d), lifecycleLines(a)) {
		t.Fatal("dropping cause edges changed a span line")
	}
	if d.Digest() == a.Digest() {
		t.Fatal("Digest must pin cause edges")
	}
}

// lifecycleLines renders the ID- and cause-free line of every retained
// span the digest folds (sched and resolve-round spans excluded).
func lifecycleLines(p *Plane) []string {
	var out []string
	for _, s := range p.Spans() {
		if s.Kind != KindSched && s.Kind != KindResolveRound {
			out = append(out, string(appendSpanLine(nil, s)))
		}
	}
	return out
}

func TestSpanString(t *testing.T) {
	cases := []struct {
		s    Span
		want string
	}{
		{Span{ID: 7, At: at(2 * time.Millisecond), Kind: KindTransition, Component: "calc",
			From: "SATISFIED", To: "ACTIVE", Detail: "admitted", Cause: 3},
			"#7 [2ms] transition calc SATISFIED->ACTIVE (admitted) <- #3"},
		{Span{ID: 1, At: at(0), Kind: KindDeploy, Component: "calc", To: "UNSATISFIED"},
			"#1 [0s] deploy calc UNSATISFIED"},
		{Span{ID: 4, At: at(time.Second), Kind: KindQuarantine, Component: "calc", N: 4, Cause: 2},
			"#4 [1s] quarantine calc n=4 <- #2"},
		{Span{ID: 9, At: at(0), Kind: KindSched, Component: "tick", To: "dispatch", N: 1},
			"#9 [0s] sched tick dispatch"},
		{Span{ID: 11, At: at(3 * time.Millisecond), Kind: KindDowngrade, Component: "calc",
			From: "full", To: "eco", Detail: "budget-overrun", Cause: 5},
			"#11 [3ms] downgrade calc full->eco (budget-overrun) <- #5"},
		{Span{ID: 12, At: at(4 * time.Millisecond), Kind: KindUpgrade, Component: "calc",
			From: "eco", To: "full", Detail: "capacity freed"},
			"#12 [4ms] upgrade calc eco->full (capacity freed)"},
		{Span{ID: 13, At: at(5 * time.Millisecond), Kind: KindRestart, Component: "zaux",
			N: 2, Detail: "crashed: injected", Cause: 8},
			"#13 [5ms] restart zaux n=2 (crashed: injected) <- #8"},
		{Span{ID: 14, At: at(6 * time.Millisecond), Kind: KindEscalate, Component: "zaux",
			To: "bundle stb.aux", Detail: "restart budget exhausted"},
			"#14 [6ms] escalate zaux bundle stb.aux (restart budget exhausted)"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Fatalf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestKindStringExhaustive(t *testing.T) {
	for k := KindDeploy; k <= KindForecast; k++ {
		if s := k.String(); strings.HasPrefix(s, "Kind(") || s == "" {
			t.Fatalf("kind %d has no name: %q", k, s)
		}
	}
	if got := Kind(0).String(); got != "Kind(0)" {
		t.Fatalf("zero kind = %q", got)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestSnapshotCountersAndEncode(t *testing.T) {
	p := NewPlane(Options{})
	p.SetLoadFunc(func() []float64 { return []float64{0.25, 0.5} })
	p.Deploy(at(0), "calc", "UNSATISFIED", "")
	tr := p.Transition(at(0), "calc", "UNSATISFIED", "SATISFIED", "", 0)
	p.Transition(at(0), "calc", "SATISFIED", "ACTIVE", "", tr)
	p.Transition(at(0), "calc", "ACTIVE", "UNSATISFIED", "", 0)
	p.Deny(at(0), "disp", "no cpu", 0)
	p.Violation(at(0), "calc", "BudgetOverrun", "", 0)
	p.Revoke(at(0), "calc", "")
	p.Quarantine(at(0), "calc", 4, 0)
	p.Restore(at(0), "calc", "")
	p.FaultInject(at(0), "exec-inflate", "calc", "")
	p.FaultClear(at(0), "exec-inflate", "calc", "", 0)
	p.NoteDrain()
	p.ResolveRound(at(0), 2, 1)
	p.ResolveRound(at(0), 0, 0) // empty round: counted, not sampled

	s := p.Snapshot()
	if s.Lifecycle.Deploys != 1 || s.Lifecycle.Transitions != 3 ||
		s.Lifecycle.Activations != 1 || s.Lifecycle.Deactivations != 1 ||
		s.Lifecycle.Denials != 1 {
		t.Fatalf("lifecycle stats: %+v", s.Lifecycle)
	}
	if s.Contract.Violations != 1 || s.Contract.Revocations != 1 ||
		s.Contract.Restores != 1 || s.Contract.Quarantines != 1 {
		t.Fatalf("contract stats: %+v", s.Contract)
	}
	if s.Fault.Injections != 1 || s.Fault.Clears != 1 {
		t.Fatalf("fault stats: %+v", s.Fault)
	}
	if s.Resolve.Drains != 1 || s.Resolve.Rounds != 2 ||
		s.Resolve.MaxWorklistDepth != 3 || s.Resolve.DepthSamples != 1 {
		t.Fatalf("resolve stats: %+v", s.Resolve)
	}
	if len(s.CPUs) != 2 || s.CPUs[1].DeclaredLoad != 0.5 {
		t.Fatalf("cpu stats: %+v", s.CPUs)
	}
	if len(s.Components) != 2 || s.Components[0].Name != "calc" || s.Components[1].Name != "disp" {
		t.Fatalf("component stats not sorted: %+v", s.Components)
	}
	if s.Components[0].Transitions != 4 || s.Components[1].Denials != 1 {
		t.Fatalf("per-component counters: %+v", s.Components)
	}

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatalf("snapshot encodes to invalid JSON: %v", err)
	}
	if round.Lifecycle != s.Lifecycle || round.Digest != s.Digest {
		t.Fatal("snapshot did not survive a JSON round trip")
	}
	data2, _ := json.Marshal(p.Snapshot())
	if string(data) != string(data2) {
		t.Fatal("two snapshots of the same state encode differently")
	}
	if !strings.Contains(s.Format(), "1 violations") {
		t.Fatalf("Format() table missing contract row:\n%s", s.Format())
	}
}

func TestDepthSeriesCapped(t *testing.T) {
	p := NewPlane(Options{})
	for i := 0; i < depthSampleCap+100; i++ {
		p.ResolveRound(at(0), 1, 1)
	}
	p.ResolveRound(at(0), 50, 0)
	s := p.Snapshot()
	if s.Resolve.DepthSamples != depthSampleCap {
		t.Fatalf("depth samples = %d, want cap %d", s.Resolve.DepthSamples, depthSampleCap)
	}
	if s.Resolve.MaxWorklistDepth != 50 {
		t.Fatalf("max depth counter must stay exact past the cap: %d", s.Resolve.MaxWorklistDepth)
	}
}

func TestObserverDelegates(t *testing.T) {
	p := NewPlane(Options{})
	o := p.Observer()
	id := p.Deploy(at(0), "calc", "UNSATISFIED", "")
	if len(o.Spans()) != 1 || o.NextID() != 2 || len(o.SpansSince(id)) != 1 {
		t.Fatal("observer span reads disagree with the plane")
	}
	if s, ok := o.Span(id); !ok || s.Component != "calc" {
		t.Fatal("observer Span lookup failed")
	}
	if len(o.Why("calc")) != 1 {
		t.Fatal("observer Why disagrees with the plane")
	}
	if o.Snapshot().SpansEmitted != 1 {
		t.Fatal("observer snapshot disagrees with the plane")
	}
}

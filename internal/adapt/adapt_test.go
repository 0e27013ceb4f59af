package adapt

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

var noNoise = rtos.TimingModel{}

// rig builds a 1-CPU system with admission disabled, so overload is
// possible and the adaptation manager has something to fix.
func rig(t *testing.T) (*rtos.Kernel, *core.DRCR) {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{Timing: &noNoise, Seed: 21})
	d, err := core.New(fw, k, core.Options{
		Internal:   policy.Static{AdmitAll: true, Label: "open"},
		ExecJitter: -1, // exact budgets
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return k, d
}

func comp(t *testing.T, name string, usage float64, prio, importance int) *descriptor.Component {
	t.Helper()
	src := fmt.Sprintf(`<component name="%s" type="periodic" cpuusage="%.2f" importance="%d">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="%d"/>
	</component>`, name, usage, importance, prio)
	c, err := descriptor.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	_, d := rig(t)
	if _, err := New(nil, &ImportanceShedding{}, time.Second); err == nil {
		t.Fatal("nil drcr accepted")
	}
	if _, err := New(d, nil, time.Second); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := New(d, &ImportanceShedding{}, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

func TestShedsLeastImportantUnderOverload(t *testing.T) {
	k, d := rig(t)
	// 130% load: the lowest-priority task misses its deadlines.
	for _, c := range []*descriptor.Component{
		comp(t, "vital", 0.50, 1, 3),
		comp(t, "mid", 0.40, 2, 2),
		comp(t, "extra", 0.40, 3, 1),
	} {
		if err := d.Deploy(c); err != nil {
			t.Fatal(err)
		}
	}
	m, err := New(d, &ImportanceShedding{HealthyChecks: 1000}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The least-important component was shed; the important ones run.
	if info, _ := d.Component("extra"); info.State != core.Suspended {
		t.Fatalf("extra = %v, want SUSPENDED", info.State)
	}
	if info, _ := d.Component("vital"); info.State != core.Active {
		t.Fatalf("vital = %v", info.State)
	}
	if info, _ := d.Component("mid"); info.State != core.Active {
		t.Fatalf("mid = %v", info.State)
	}
	// After shedding, the remaining set is schedulable: no further misses.
	vital, _ := k.Task("vital")
	mid, _ := k.Task("mid")
	vital.ResetStats()
	mid.ResetStats()
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if vital.Stats().Misses != 0 || mid.Stats().Misses != 0 {
		t.Fatalf("post-shed misses: vital %d mid %d", vital.Stats().Misses, mid.Stats().Misses)
	}
	// The log names the action.
	var suspends int
	for _, a := range m.History() {
		if a.Action.Kind == ActSuspend && a.Err == nil {
			suspends++
		}
	}
	if suspends == 0 {
		t.Fatal("no suspend actions recorded")
	}
}

func TestResumesWhenHealthy(t *testing.T) {
	k, d := rig(t)
	if err := d.Deploy(comp(t, "vital", 0.50, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(comp(t, "extra", 0.30, 3, 1)); err != nil {
		t.Fatal(err)
	}
	// Transient overload: a heavy guest pushes the system to 130%.
	if err := d.Deploy(comp(t, "guest", 0.50, 2, 2)); err != nil {
		t.Fatal(err)
	}
	// HealthyChecks is longer than the observation window below, so no
	// resume can happen while the guest is still causing overload.
	m, err := New(d, &ImportanceShedding{HealthyChecks: 5}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if err := k.Run(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if info, _ := d.Component("extra"); info.State != core.Suspended {
		t.Fatalf("extra during overload = %v", info.State)
	}
	// The guest leaves; after five healthy checks the victim returns.
	if err := d.Remove("guest"); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if info, _ := d.Component("extra"); info.State != core.Active {
		t.Fatalf("extra after recovery = %v", info.State)
	}
	var resumes int
	for _, a := range m.History() {
		if a.Action.Kind == ActResume && a.Err == nil {
			resumes++
		}
	}
	if resumes != 1 {
		t.Fatalf("resumes = %d", resumes)
	}
}

// scriptedPolicy replays a fixed action list once.
type scriptedPolicy struct {
	actions []Action
	played  bool
}

func (s *scriptedPolicy) Name() string { return "scripted" }

func (s *scriptedPolicy) Decide([]Health) []Action {
	if s.played {
		return nil
	}
	s.played = true
	return s.actions
}

func TestSetPropertyAndDisableActions(t *testing.T) {
	k, d := rig(t)
	if err := d.Deploy(comp(t, "tgt", 0.10, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(comp(t, "off", 0.10, 2, 1)); err != nil {
		t.Fatal(err)
	}
	p := &scriptedPolicy{actions: []Action{
		{Kind: ActSetProperty, Component: "tgt", Key: "rate", Value: "fast"},
		{Kind: ActDisable, Component: "off"},
		{Kind: ActSetProperty, Component: "ghost", Key: "a", Value: "b"}, // fails
		{Kind: ActionKind(99), Component: "tgt"},                         // fails
	}}
	m, err := New(d, p, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	applied := m.CheckNow()
	if len(applied) != 4 {
		t.Fatalf("applied = %d", len(applied))
	}
	if applied[0].Err != nil || applied[1].Err != nil {
		t.Fatalf("valid actions failed: %v %v", applied[0].Err, applied[1].Err)
	}
	if applied[2].Err == nil || applied[3].Err == nil {
		t.Fatal("invalid actions did not fail")
	}
	if err := k.Run(50 * time.Millisecond); err != nil { // property applied at job boundary
		t.Fatal(err)
	}
	mgmt, _ := d.Management("tgt")
	if v, _ := mgmt.Property("rate"); v != "fast" {
		t.Fatalf("rate = %q", v)
	}
	if info, _ := d.Component("off"); info.State != core.Disabled {
		t.Fatalf("off = %v", info.State)
	}
}

func TestManagerStartStopIdempotent(t *testing.T) {
	k, d := rig(t)
	m, err := New(d, &ImportanceShedding{}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	m.Stop()
	if m.tick != nil {
		t.Fatal("stopped manager still holds its tick event")
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(m.History()) != 0 {
		t.Fatalf("history = %v", m.History())
	}
}

func TestPickVictimOrdering(t *testing.T) {
	mk := func(name string, imp int, usage float64, st core.State) Health {
		return Health{Info: core.Info{Name: name, Importance: imp, CPUUsage: usage, State: st}}
	}
	snapshot := []Health{
		mk("a", 2, 0.1, core.Active),
		mk("b", 1, 0.1, core.Active),
		mk("c", 1, 0.3, core.Active),
		mk("d", 0, 0.9, core.Suspended), // not active: never a victim
	}
	if got := pickVictim(snapshot, nil); got.Name != "c" {
		t.Fatalf("victim = %q, want c (lowest importance, biggest budget)", got.Name)
	}
	if got := pickVictim(nil, nil); got.Name != "" {
		t.Fatalf("victim of empty = %q", got.Name)
	}
}

// TestImportanceTieOrderIsDeterministic pins the full shed/restore cycle
// on importance ties: victims fall in higher-budget-then-name order, and
// recovery undoes them in exactly the reverse order.
func TestImportanceTieOrderIsDeterministic(t *testing.T) {
	mk := func(name string, usage float64, st core.State, miss uint64) Health {
		return Health{
			Info:        core.Info{Name: name, Importance: 1, CPUUsage: usage, State: st},
			MissesDelta: miss,
		}
	}
	p := &ImportanceShedding{HealthyChecks: 1}
	decide := func(snapshot []Health) []Action {
		t.Helper()
		return p.Decide(snapshot)
	}
	one := func(acts []Action, kind ActionKind, comp string) {
		t.Helper()
		if len(acts) != 1 || acts[0].Kind != kind || acts[0].Component != comp {
			t.Fatalf("actions = %v, want one %v on %s", acts, kind, comp)
		}
	}
	overloaded := []Health{
		mk("a", 0.2, core.Active, 5),
		mk("b", 0.3, core.Active, 5),
		mk("c", 0.2, core.Active, 5),
	}
	// All tie on importance: b falls first (highest budget), then the
	// a/c budget tie breaks by name.
	one(decide(overloaded), ActSuspend, "b")
	if acts := decide(overloaded); acts != nil { // settle check after a shed
		t.Fatalf("settle check acted: %v", acts)
	}
	overloaded[1].Info.State = core.Suspended
	one(decide(overloaded), ActSuspend, "a")
	decide(overloaded) // settle
	overloaded[0].Info.State = core.Suspended
	one(decide(overloaded), ActSuspend, "c")
	decide(overloaded) // settle
	healthy := []Health{
		mk("a", 0.2, core.Suspended, 0),
		mk("b", 0.3, core.Suspended, 0),
		mk("c", 0.2, core.Suspended, 0),
	}
	// Recovery reverses the shed order exactly: c, a, b.
	one(decide(healthy), ActResume, "c")
	one(decide(healthy), ActResume, "a")
	one(decide(healthy), ActResume, "b")
	if acts := decide(healthy); acts != nil {
		t.Fatalf("empty stack still acted: %v", acts)
	}
}

// TestDecidePrefersDowngradeOverSuspend pins the mode-aware shed path: a
// victim with a cheaper declared mode is downgraded (ActDowngrade), one
// at its lowest mode is suspended, and recovery issues the matching
// inverse action for each.
func TestDecidePrefersDowngradeOverSuspend(t *testing.T) {
	modes := []core.ModeInfo{{Name: "full"}, {Name: "eco"}}
	victim := Health{Info: core.Info{
		Name: "x", Importance: 1, CPUUsage: 0.4, State: core.Active, Modes: modes,
	}}
	other := Health{Info: core.Info{
		Name: "y", Importance: 2, CPUUsage: 0.4, State: core.Active,
	}, MissesDelta: 3}
	p := &ImportanceShedding{HealthyChecks: 1}
	acts := p.Decide([]Health{victim, other})
	if len(acts) != 1 || acts[0].Kind != ActDowngrade || acts[0].Component != "x" {
		t.Fatalf("actions = %v, want downgrade of x", acts)
	}
	p.Decide([]Health{victim, other}) // settle
	// Still overloaded and x now sits at its lowest mode: suspension is
	// all that is left.
	victim.Info.Mode = 1
	acts = p.Decide([]Health{victim, other})
	if len(acts) != 1 || acts[0].Kind != ActSuspend || acts[0].Component != "x" {
		t.Fatalf("actions = %v, want suspend of x at lowest mode", acts)
	}
	p.Decide([]Health{victim, other}) // settle
	victim.Info.State = core.Suspended
	healthy := []Health{victim, {Info: other.Info}}
	acts = p.Decide(healthy)
	if len(acts) != 1 || acts[0].Kind != ActResume || acts[0].Component != "x" {
		t.Fatalf("actions = %v, want resume of x first", acts)
	}
	victim.Info.State = core.Active
	healthy = []Health{victim, {Info: other.Info}}
	acts = p.Decide(healthy)
	if len(acts) != 1 || acts[0].Kind != ActPromote || acts[0].Component != "x" {
		t.Fatalf("actions = %v, want promote of x second", acts)
	}
}

// TestDecideWalksAllLaddersBeforeSuspending pins the cross-victim
// preference: while ANY active component still has a cheaper declared
// mode, shedding downgrades (the least important such component) rather
// than suspending the overall least-important one.
func TestDecideWalksAllLaddersBeforeSuspending(t *testing.T) {
	modes := []core.ModeInfo{{Name: "full"}, {Name: "eco"}}
	plain := Health{Info: core.Info{
		Name: "plain", Importance: 1, CPUUsage: 0.4, State: core.Active,
	}, MissesDelta: 3}
	laddered := Health{Info: core.Info{
		Name: "laddered", Importance: 5, CPUUsage: 0.4, State: core.Active, Modes: modes,
	}}
	p := &ImportanceShedding{HealthyChecks: 1}
	acts := p.Decide([]Health{laddered, plain})
	if len(acts) != 1 || acts[0].Kind != ActDowngrade || acts[0].Component != "laddered" {
		t.Fatalf("actions = %v, want downgrade of laddered before any suspend", acts)
	}
	p.Decide([]Health{laddered, plain}) // settle
	// Every ladder exhausted: now the least-important component falls.
	laddered.Info.Mode = 1
	acts = p.Decide([]Health{laddered, plain})
	if len(acts) != 1 || acts[0].Kind != ActSuspend || acts[0].Component != "plain" {
		t.Fatalf("actions = %v, want suspend of plain once ladders are dry", acts)
	}
}

// modeComp builds a descriptor with one cheaper declared mode.
func modeComp(t *testing.T, name string, usage float64, prio, importance int, ecoUsage float64) *descriptor.Component {
	t.Helper()
	src := fmt.Sprintf(`<component name="%s" type="periodic" cpuusage="%.2f" importance="%d">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="%d"/>
	  <mode name="eco" frequence="50" cpuusage="%.2f"/>
	</component>`, name, usage, importance, prio, ecoUsage)
	c, err := descriptor.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestManagerDowngradesAndRepromotes runs the mode-aware policy against a
// live system: overload degrades the least-important component instead of
// suspending it (it keeps serving), and recovery releases it back to the
// full contract.
func TestManagerDowngradesAndRepromotes(t *testing.T) {
	k, d := rig(t)
	if err := d.Deploy(comp(t, "vital", 0.50, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(comp(t, "guest", 0.40, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(modeComp(t, "extra", 0.30, 3, 1, 0.05)); err != nil {
		t.Fatal(err)
	}
	m, err := New(d, &ImportanceShedding{HealthyChecks: 5}, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	// 120% load: extra is degraded, not suspended — it keeps serving.
	if err := k.Run(400 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if info, _ := d.Component("extra"); info.State != core.Active || info.ModeName != "eco" {
		t.Fatalf("extra during overload = %v mode %q, want ACTIVE in eco", info.State, info.ModeName)
	}
	for _, a := range m.History() {
		if a.Action.Kind == ActSuspend {
			t.Fatalf("suspended %s despite a cheaper mode", a.Action.Component)
		}
	}
	// The guest leaves; after the healthy window the policy releases the
	// promotion hold and the resolver restores the full contract.
	if err := d.Remove("guest"); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	info, _ := d.Component("extra")
	if info.State != core.Active || info.Mode != 0 {
		t.Fatalf("extra after recovery = %v mode %d, want ACTIVE at full contract", info.State, info.Mode)
	}
	var promotes int
	for _, a := range m.History() {
		if a.Action.Kind == ActPromote && a.Err == nil {
			promotes++
		}
	}
	if promotes != 1 {
		t.Fatalf("promotes = %d, want 1 (history %v)", promotes, m.History())
	}
}

// recorder captures snapshots without acting, for inspecting Health.
type recorder struct{ last []Health }

func (r *recorder) Name() string               { return "recorder" }
func (r *recorder) Decide(s []Health) []Action { r.last = s; return nil }

func TestHealthCarriesKernelCounters(t *testing.T) {
	k, d := rig(t)
	if err := d.Deploy(comp(t, "busy", 0.10, 1, 5)); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	m, err := New(d, rec, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m.CheckNow()
	if len(rec.last) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(rec.last))
	}
	h := rec.last[0]
	// 100 Hz at 10% budget: ~50 ms of run time is ~5 ms consumed.
	if h.Consumed <= 0 {
		t.Errorf("Consumed = %v, want > 0", h.Consumed)
	}
	if h.ConsumedDelta != h.Consumed {
		t.Errorf("first check ConsumedDelta = %v, want full Consumed %v", h.ConsumedDelta, h.Consumed)
	}
	if err := k.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	m.CheckNow()
	h2 := rec.last[0]
	if h2.Consumed <= h.Consumed {
		t.Errorf("Consumed did not advance: %v -> %v", h.Consumed, h2.Consumed)
	}
	if h2.ConsumedDelta != h2.Consumed-h.Consumed {
		t.Errorf("ConsumedDelta = %v, want %v", h2.ConsumedDelta, h2.Consumed-h.Consumed)
	}
	if h2.Misses != 0 || h2.Skips != 0 {
		t.Errorf("healthy task shows misses=%d skips=%d", h2.Misses, h2.Skips)
	}
}

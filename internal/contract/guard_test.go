package contract

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

const calcXML = `<component name="calc" desc="computing job" type="periodic" cpuusage="0.05">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <property name="drcom.exectime.us" type="Integer" value="30"/>
</component>`

func rig(t *testing.T) (*rtos.Kernel, *core.DRCR) {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{Seed: 5})
	d, err := core.New(fw, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	err = d.RegisterBody("demo.Calculation", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM("lat"); err == nil {
				_ = shm.Set(0, int64(j.Index))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := descriptor.Parse(calcXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(desc); err != nil {
		t.Fatal(err)
	}
	return k, d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil DRCR accepted")
	}
}

func TestHealthyComponentStaysClean(t *testing.T) {
	k, d := rig(t)
	g, err := New(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if vs := g.Violations(); len(vs) != 0 {
		t.Errorf("healthy run produced violations: %v", vs)
	}
	if tr := g.Trace(); len(tr) != 0 {
		t.Errorf("healthy run produced trace records: %v", tr)
	}
	g.Stop()
}

func TestEnforcingGuardRevokesAndRestores(t *testing.T) {
	k, d := rig(t)
	g, err := New(d, Options{Quarantine: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	task, _ := k.Task("calc")
	task.SetExecScale(4)
	// Two over-budget windows trigger the violation; the scale dies with
	// the revoked task, so the re-admitted instance is healthy again.
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(g.Violations()) == 0 {
		t.Fatal("guard detected nothing")
	}
	if v := g.Violations()[0]; v.Kind != BudgetOverrun || v.Component != "calc" {
		t.Errorf("first violation = %v, want calc budget-overrun", v)
	}
	var revoked, restored bool
	for _, r := range g.Trace() {
		switch r.Action {
		case "revoke":
			revoked = true
		case "restore":
			restored = true
		}
	}
	if !revoked || !restored {
		t.Fatalf("revoked=%v restored=%v, want both (trace %v)", revoked, restored, g.Trace())
	}
	if info, _ := d.Component("calc"); info.State != core.Active || info.Revoked {
		t.Errorf("calc = %v revoked=%v at end, want ACTIVE and clear", info.State, info.Revoked)
	}
	if g.TraceDigest() == "" {
		t.Error("empty trace digest")
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	_, d := rig(t)
	g, _ := New(d, Options{})
	empty := g.TraceDigest()
	g.record(0, "violation", "calc", "x")
	one := g.TraceDigest()
	if empty == one {
		t.Error("digest unchanged after a record")
	}
}

// calcDegradeXML declares a cheaper "eco" fallback the guard can step a
// violating calc down to. The pinned exec time (30 µs) is mode-invariant:
// degrading changes the contract, not the work, so the 4× inflated cost
// (120 µs) violates the full contract (12% vs 5%×1.5) but fits eco
// (120 µs / 4 ms = 3% vs 4%×1.5).
const calcDegradeXML = `<component name="calc" desc="computing job" type="periodic" cpuusage="0.05">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <mode name="eco" frequence="250" cpuusage="0.04"/>
  <property name="drcom.exectime.us" type="Integer" value="30"/>
</component>`

// degradeRig deploys the multi-mode calc and re-applies the exec-time
// inflation whenever a fresh instance comes up (the fault injector does
// the same for injected faults), so the overload persists across mode
// swaps and re-admissions.
func degradeRig(t *testing.T, xml string) (*rtos.Kernel, *core.DRCR) {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{Seed: 5})
	d, err := core.New(fw, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	err = d.RegisterBody("demo.Calculation", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM("lat"); err == nil {
				_ = shm.Set(0, int64(j.Index))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AddListener(func(e core.Event) {
		if e.Component == "calc" && e.To == core.Active {
			if task, ok := k.Task("calc"); ok {
				task.SetExecScale(4)
			}
		}
	})
	desc, err := descriptor.Parse(xml)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(desc); err != nil {
		t.Fatal(err)
	}
	return k, d
}

// TestGuardDowngradesBeforeRevoking pins the graceful-degradation
// enforcement ladder: a violating component with a declared fallback is
// stepped down (staying ACTIVE), the doubling backoff gates each
// re-promotion, and revocation never fires while a cheaper mode absorbs
// the overload.
func TestGuardDowngradesBeforeRevoking(t *testing.T) {
	k, d := degradeRig(t, calcDegradeXML)
	// HealthyReset is effectively disabled so the doubling backoff is
	// visible across promote/violate cycles (clean eco checks would
	// otherwise clear it, by design).
	g, err := New(d, Options{HealthyReset: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	var downgrades, releases, revokes int
	for _, r := range g.Trace() {
		switch r.Action {
		case "downgrade":
			downgrades++
		case "release":
			releases++
		case "revoke":
			revokes++
		}
	}
	if downgrades < 2 {
		t.Errorf("downgrades = %d, want >= 2 (violate, promote after hold, violate again)", downgrades)
	}
	if releases < 1 {
		t.Errorf("releases = %d, want >= 1 (backoff hold must expire)", releases)
	}
	if revokes != 0 {
		t.Errorf("revokes = %d, want 0 while a cheaper mode absorbs the overload", revokes)
	}
	info, _ := d.Component("calc")
	if info.State != core.Active {
		t.Errorf("calc state = %v, want ACTIVE throughout (availability preserved)", info.State)
	}
	snap := d.Obs().Snapshot()
	if snap.Degrade.Downgrades == 0 || snap.Degrade.Upgrades == 0 {
		t.Errorf("degrade counters = %+v, want both downgrades and upgrades", snap.Degrade)
	}
	// Each successive downgrade serves a longer hold than the one before.
	var holdStarts []int64
	for _, r := range g.Trace() {
		if r.Action == "downgrade" {
			holdStarts = append(holdStarts, int64(r.At))
		}
	}
	for i := 2; i < len(holdStarts); i++ {
		if holdStarts[i]-holdStarts[i-1] <= holdStarts[i-1]-holdStarts[i-2] {
			t.Errorf("downgrade intervals not growing: %v", holdStarts)
			break
		}
	}
}

// TestGuardQuarantinesAtLowestMode pins the last-resort path: when even
// the cheapest declared mode violates, the guard falls back to
// revocation and quarantine.
func TestGuardQuarantinesAtLowestMode(t *testing.T) {
	const tightXML = `<component name="calc" desc="computing job" type="periodic" cpuusage="0.05">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <mode name="eco" frequence="250" cpuusage="0.01"/>
  <property name="drcom.exectime.us" type="Integer" value="30"/>
</component>`
	k, d := degradeRig(t, tightXML)
	g, err := New(d, Options{Quarantine: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var sawDowngrade, sawRevoke bool
	for _, r := range g.Trace() {
		if r.Action == "downgrade" {
			sawDowngrade = true
		}
		if r.Action == "revoke" {
			if !sawDowngrade {
				t.Fatal("revoked before trying the cheaper mode")
			}
			sawRevoke = true
		}
	}
	if !sawDowngrade || !sawRevoke {
		t.Fatalf("downgrade=%v revoke=%v, want the full ladder (trace %v)",
			sawDowngrade, sawRevoke, g.Trace())
	}
}

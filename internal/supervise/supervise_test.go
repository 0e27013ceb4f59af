package supervise

import (
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
	"repro/internal/sim"
)

const crasheeXML = `<component name="crash" type="periodic" cpuusage="0.02">
  <implementation bincode="demo.Crashee"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
</component>`

const bystanderXML = `<component name="byst" type="periodic" cpuusage="0.02">
  <implementation bincode="demo.Bystander"/>
  <periodictask frequence="100" runoncup="0" priority="3"/>
</component>`

func rig(t *testing.T) (*osgi.Framework, *rtos.Kernel, *core.DRCR) {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{Seed: 11})
	d, err := core.New(fw, k, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return fw, k, d
}

func installBundle(t *testing.T, fw *osgi.Framework, name, res, xml string) *osgi.Bundle {
	t.Helper()
	m := manifest.New(name, manifest.MustParseVersion("1.0"))
	m.DRComComponents = []string{res}
	b, err := fw.Install(osgi.Definition{
		Manifest:  m,
		Resources: map[string]string{res: xml},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	return b
}

func mustParse(t *testing.T, src string) *descriptor.Component {
	t.Helper()
	c, err := descriptor.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func crashAt(t *testing.T, k *rtos.Kernel, d *core.DRCR, name string, at time.Duration) {
	t.Helper()
	_, err := k.Clock().After(at, "test:crash:"+name, func(sim.Time) {
		_ = d.Crash(name, "test fault")
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSupervisedRestart pins the basic loop: a crash lands the component
// DISABLED, the supervisor re-enables it after the backoff, and normal
// admission brings it back ACTIVE.
func TestSupervisedRestart(t *testing.T) {
	fw, k, d := rig(t)
	installBundle(t, fw, "demo.crash", "OSGI-INF/crash.xml", crasheeXML)
	s, err := New(d, Options{Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)

	crashAt(t, k, d, "crash", 50*time.Millisecond)
	if err := k.Run(60 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if info, _ := d.Component("crash"); info.State != core.Disabled {
		t.Fatalf("crash = %v right after the fault, want DISABLED", info.State)
	}
	if err := k.Run(20 * time.Millisecond); err != nil { // backoff served at 70ms
		t.Fatal(err)
	}
	if info, _ := d.Component("crash"); info.State != core.Active {
		t.Fatalf("crash = %v after supervised restart, want ACTIVE", info.State)
	}
	snap := d.Obs().Snapshot()
	if snap.Supervise.Restarts != 1 || snap.Supervise.Escalations != 0 {
		t.Fatalf("supervise counters = %+v, want 1 restart, 0 escalations", snap.Supervise)
	}
}

// TestRestartStormEscalates pins escalation: four crashes inside the
// window exhaust the budget of 3, the supervisor bounces the whole
// bundle, the component comes back through a fresh deploy, and a
// bystander in another bundle rides it out untouched.
func TestRestartStormEscalates(t *testing.T) {
	fw, k, d := rig(t)
	installBundle(t, fw, "demo.crash", "OSGI-INF/crash.xml", crasheeXML)
	installBundle(t, fw, "demo.byst", "OSGI-INF/byst.xml", bystanderXML)

	g, err := contract.New(d, contract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)

	s, err := New(d, Options{MaxRestarts: 3, Window: 2 * time.Second, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)

	for _, at := range []time.Duration{100, 200, 300, 400} {
		crashAt(t, k, d, "crash", at*time.Millisecond)
	}
	if err := k.Run(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var restarts, escalates int
	for _, r := range s.Trace() {
		switch r.Action {
		case "restart":
			restarts++
		case "escalate":
			escalates++
		}
	}
	if restarts != 3 || escalates != 1 {
		t.Fatalf("restarts=%d escalates=%d, want 3 and 1 (trace %v)", restarts, escalates, s.Trace())
	}
	if info, ok := d.Component("crash"); !ok || info.State != core.Active {
		t.Fatalf("crash = %+v after bundle escalation, want ACTIVE via fresh deploy", info)
	}
	if info, _ := d.Component("byst"); info.State != core.Active {
		t.Fatalf("bystander = %v, want ACTIVE throughout", info.State)
	}
	if vs := g.Violations(); len(vs) != 0 {
		t.Fatalf("bystander guard violations = %v, want none", vs)
	}
	snap := d.Obs().Snapshot()
	if snap.Supervise.Restarts != 3 || snap.Supervise.Escalations != 1 {
		t.Fatalf("supervise counters = %+v, want 3 restarts, 1 escalation", snap.Supervise)
	}
	found := false
	for _, sp := range d.Obs().Spans() {
		if sp.Kind == obs.KindEscalate && sp.Component == "crash" && sp.To == "demo.crash" {
			found = true
		}
	}
	if !found {
		t.Fatal("no escalate span naming the bundle")
	}

	// After escalation the component is given up: another crash stays down.
	crashAt(t, k, d, "crash", 50*time.Millisecond) // relative to now (600ms)
	if err := k.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if info, _ := d.Component("crash"); info.State != core.Disabled {
		t.Fatalf("crash = %v after post-escalation crash, want DISABLED (given up)", info.State)
	}
}

// TestGiveUpWithoutBundle pins the no-bundle path: a directly-deployed
// component cannot escalate, so an exhausted budget gives it up.
func TestGiveUpWithoutBundle(t *testing.T) {
	_, k, d := rig(t)
	desc := mustParse(t, crasheeXML)
	if err := d.Deploy(desc); err != nil {
		t.Fatal(err)
	}
	s, err := New(d, Options{MaxRestarts: 1, Backoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)

	crashAt(t, k, d, "crash", 20*time.Millisecond)
	crashAt(t, k, d, "crash", 60*time.Millisecond)
	if err := k.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var gaveUp bool
	for _, r := range s.Trace() {
		if r.Action == "give-up" {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatalf("no give-up record: %v", s.Trace())
	}
	if info, _ := d.Component("crash"); info.State != core.Disabled {
		t.Fatalf("crash = %v, want DISABLED after give-up", info.State)
	}
}

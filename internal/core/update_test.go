package core

import (
	"testing"
	"time"

	"repro/internal/manifest"
	"repro/internal/osgi"
)

// TestBundleUpdateSwapsComponentContract exercises the continuous-
// deployment path the paper's introduction highlights: replacing a
// bundle with a new version (no system restart) replaces its component's
// real-time contract, and the DRCR re-admits the new version
// automatically.
func TestBundleUpdateSwapsComponentContract(t *testing.T) {
	fw, k, d := newRig(t)

	mkDef := func(version, freq string) osgi.Definition {
		m := manifest.New("demo.cam", manifest.MustParseVersion(version))
		m.DRComComponents = []string{"OSGI-INF/cam.xml"}
		return osgi.Definition{
			Manifest: m,
			Resources: map[string]string{
				"OSGI-INF/cam.xml": `<component name="cam" type="periodic" cpuusage="0.1">
				  <implementation bincode="x"/>
				  <periodictask frequence="` + freq + `" runoncup="0" priority="1"/>
				</component>`,
			},
		}
	}

	b, err := fw.Install(mkDef("1.0", "100"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	task, ok := k.Task("cam")
	if !ok {
		t.Fatal("v1 task missing")
	}
	if task.Spec().Period != 10*time.Millisecond {
		t.Fatalf("v1 period = %v", task.Spec().Period)
	}
	if err := k.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Hot update to v2 at 200 Hz: uninstall v1, install and start v2,
	// all driven by framework events.
	if _, err := reinstall(fw, b, mkDef("2.0", "200")); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "cam"); got != Active {
		t.Fatalf("cam after update = %v", got)
	}
	task2, ok := k.Task("cam")
	if !ok {
		t.Fatal("v2 task missing")
	}
	if task2 == task {
		t.Fatal("task instance not recreated on update")
	}
	if task2.Spec().Period != 5*time.Millisecond {
		t.Fatalf("v2 period = %v, want 5ms (200 Hz)", task2.Spec().Period)
	}
	if err := k.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if task2.Stats().Jobs < 9 {
		t.Fatalf("v2 jobs = %d", task2.Stats().Jobs)
	}
	// The whole system never restarted: the framework and kernel are the
	// same instances and the event log shows the v1 destroy + v2 adopt.
	var destroyed, adopted bool
	for _, ev := range d.Events() {
		if ev.Component == "cam" && ev.To == Destroyed {
			destroyed = true
		}
		if ev.Component == "cam" && destroyed && ev.To == Active {
			adopted = true
		}
	}
	if !destroyed || !adopted {
		t.Fatalf("update lifecycle not visible in events: destroyed=%v adopted=%v", destroyed, adopted)
	}
}

// TestBundleUpdateCascadesThroughDependants: replacing the provider
// bundle briefly takes dependants down and brings them back — downtime-
// free for the system, contract-preserving for the components.
func TestBundleUpdateCascadesThroughDependants(t *testing.T) {
	fw, _, d := newRig(t)
	provDef := func(version string) osgi.Definition {
		m := manifest.New("demo.calc", manifest.MustParseVersion(version))
		m.DRComComponents = []string{"OSGI-INF/calc.xml"}
		return osgi.Definition{
			Manifest:  m,
			Resources: map[string]string{"OSGI-INF/calc.xml": calcXML},
		}
	}
	pb, err := fw.Install(provDef("1.0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, displayXML)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp = %v", got)
	}
	if _, err := reinstall(fw, pb, provDef("1.1")); err != nil {
		t.Fatal(err)
	}
	// After the update settles, both are active again.
	if got := stateOf(t, d, "calc"); got != Active {
		t.Fatalf("calc after update = %v", got)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp after provider update = %v", got)
	}
	info, _ := d.Component("calc")
	if info.Bundle != "demo.calc" {
		t.Fatalf("calc bundle = %q", info.Bundle)
	}
}

// reinstall replaces an installed bundle with a new version of it:
// uninstall (stopping it if active), then install and start def.
func reinstall(fw *osgi.Framework, old *osgi.Bundle, def osgi.Definition) (*osgi.Bundle, error) {
	if err := old.Uninstall(); err != nil {
		return nil, err
	}
	b, err := fw.Install(def)
	if err != nil {
		return nil, err
	}
	return b, b.Start()
}

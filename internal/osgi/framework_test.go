package osgi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/manifest"
)

// testActivator records start/stop calls and can be told to fail.
type testActivator struct {
	started, stopped int
	failStart        bool
	failStop         bool
}

func (a *testActivator) Start() error {
	a.started++
	if a.failStart {
		return errors.New("boom on start")
	}
	return nil
}

func (a *testActivator) Stop() error {
	a.stopped++
	if a.failStop {
		return errors.New("boom on stop")
	}
	return nil
}

func def(name, version string) Definition {
	return Definition{Manifest: manifest.New(name, manifest.MustParseVersion(version))}
}

func defWithActivator(name, version string, act Activator) Definition {
	d := def(name, version)
	d.Activator = act
	return d
}

func TestInstallAssignsIDs(t *testing.T) {
	fw := NewFramework()
	b1, err := fw.Install(def("a", "1.0"))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := fw.Install(def("b", "1.0"))
	if err != nil {
		t.Fatal(err)
	}
	if b1.id == b2.id {
		t.Fatal("duplicate bundle ids")
	}
	if b1.State() != Installed {
		t.Fatalf("state = %v, want INSTALLED", b1.State())
	}
	if got := len(fw.Bundles()); got != 2 {
		t.Fatalf("Bundles len = %d", got)
	}
}

func TestInstallRejectsDuplicates(t *testing.T) {
	fw := NewFramework()
	if _, err := fw.Install(def("a", "1.0")); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Install(def("a", "1.0")); err == nil {
		t.Fatal("duplicate install accepted")
	}
	// Same name, different version is fine.
	if _, err := fw.Install(def("a", "2.0")); err != nil {
		t.Fatal(err)
	}
}

func TestInstallValidation(t *testing.T) {
	fw := NewFramework()
	if _, err := fw.Install(Definition{}); err == nil {
		t.Fatal("nil manifest accepted")
	}
	if _, err := fw.Install(Definition{Manifest: &manifest.Manifest{}}); err == nil {
		t.Fatal("empty symbolic name accepted")
	}
}

func TestStartStopLifecycle(t *testing.T) {
	fw := NewFramework()
	act := &testActivator{}
	b, err := fw.Install(defWithActivator("a", "1.0", act))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if b.State() != Active || act.started != 1 {
		t.Fatalf("state %v started %d", b.State(), act.started)
	}
	// Idempotent start.
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if act.started != 1 {
		t.Fatalf("second Start invoked activator: %d", act.started)
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	if b.State() != Resolved || act.stopped != 1 {
		t.Fatalf("after stop: state %v stopped %d", b.State(), act.stopped)
	}
	// Stop when not active is a no-op.
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestActivatorStartFailure(t *testing.T) {
	fw := NewFramework()
	act := &testActivator{failStart: true}
	b, _ := fw.Install(defWithActivator("a", "1.0", act))
	if err := b.Start(); err == nil || !strings.Contains(err.Error(), "boom on start") {
		t.Fatalf("start err = %v, want the activator's error", err)
	}
	if b.State() != Resolved {
		t.Fatalf("state after failed start = %v, want RESOLVED", b.State())
	}
}

func TestActivatorStopFailureStillStops(t *testing.T) {
	fw := NewFramework()
	act := &testActivator{failStop: true}
	b, _ := fw.Install(defWithActivator("a", "1.0", act))
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Stop(); err == nil {
		t.Fatal("stop error swallowed")
	}
	if b.State() != Resolved {
		t.Fatalf("state = %v, want RESOLVED even after stop error", b.State())
	}
}

func TestBundleEventsSequence(t *testing.T) {
	fw := NewFramework()
	var events []BundleEventType
	fw.AddBundleListener(BundleListenerFunc(func(ev BundleEvent) {
		events = append(events, ev.Type)
	}))
	b, _ := fw.Install(def("a", "1.0"))
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := b.Uninstall(); err != nil {
		t.Fatal(err)
	}
	want := []BundleEventType{
		BundleInstalled, BundleResolved, BundleStarting, BundleStarted,
		BundleStopping, BundleStopped, BundleUninstalled,
	}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestUninstallActiveBundleStopsIt(t *testing.T) {
	fw := NewFramework()
	act := &testActivator{}
	b, _ := fw.Install(defWithActivator("a", "1.0", act))
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Uninstall(); err != nil {
		t.Fatal(err)
	}
	if act.stopped != 1 {
		t.Fatal("activator not stopped on uninstall")
	}
	if b.State() != Uninstalled {
		t.Fatalf("state = %v", b.State())
	}
	if err := b.Start(); err == nil {
		t.Fatal("started an uninstalled bundle")
	}
	if err := b.Uninstall(); err == nil {
		t.Fatal("double uninstall accepted")
	}
}

func TestResolutionWiring(t *testing.T) {
	fw := NewFramework()
	exp := manifest.New("exporter", manifest.MustParseVersion("1.0"))
	exp.Exports = []manifest.PackageExport{{Name: "ua.pats.rt", Version: manifest.MustParseVersion("1.2")}}
	expB, _ := fw.Install(Definition{Manifest: exp})

	imp := manifest.New("importer", manifest.MustParseVersion("1.0"))
	imp.Imports = []manifest.PackageImport{{Name: "ua.pats.rt", Range: mustRange("[1.0,2.0)")}}
	impB, _ := fw.Install(Definition{Manifest: imp})

	if err := impB.Start(); err != nil {
		t.Fatal(err)
	}
	if wired := impB.wires["ua.pats.rt"]; wired != expB {
		t.Fatalf("wired to %v", wired)
	}
}

func TestResolutionFailsOnMissingImport(t *testing.T) {
	fw := NewFramework()
	imp := manifest.New("importer", manifest.MustParseVersion("1.0"))
	imp.Imports = []manifest.PackageImport{{Name: "no.such.pkg", Range: manifest.AnyVersion}}
	b, _ := fw.Install(Definition{Manifest: imp})
	err := b.Start()
	if err == nil {
		t.Fatal("start succeeded without exporter")
	}
	var re *ResolutionError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T", err)
	}
	if b.State() != Installed {
		t.Fatalf("state = %v, want INSTALLED", b.State())
	}
}

func TestOptionalImportLeftUnwired(t *testing.T) {
	fw := NewFramework()
	imp := manifest.New("importer", manifest.MustParseVersion("1.0"))
	imp.Imports = []manifest.PackageImport{{Name: "maybe.pkg", Range: manifest.AnyVersion, Optional: true}}
	b, _ := fw.Install(Definition{Manifest: imp})
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.wires["maybe.pkg"]; ok {
		t.Fatal("optional import wired to nothing?")
	}
}

func TestResolutionPrefersHighestVersion(t *testing.T) {
	fw := NewFramework()
	for _, v := range []string{"1.0", "1.5", "1.2"} {
		m := manifest.New("exp-"+v, manifest.MustParseVersion("1.0"))
		m.Exports = []manifest.PackageExport{{Name: "pkg", Version: manifest.MustParseVersion(v)}}
		if _, err := fw.Install(Definition{Manifest: m}); err != nil {
			t.Fatal(err)
		}
	}
	imp := manifest.New("importer", manifest.MustParseVersion("1.0"))
	imp.Imports = []manifest.PackageImport{{Name: "pkg", Range: manifest.AnyVersion}}
	b, _ := fw.Install(Definition{Manifest: imp})
	if err := resolve(fw, b); err != nil {
		t.Fatal(err)
	}
	wired := b.wires["pkg"]
	if wired.SymbolicName() != "exp-1.5" {
		t.Fatalf("wired to %s, want exp-1.5", wired.SymbolicName())
	}
}

func TestUninstallExporterUnresolvesImporter(t *testing.T) {
	fw := NewFramework()
	exp := manifest.New("exporter", manifest.MustParseVersion("1.0"))
	exp.Exports = []manifest.PackageExport{{Name: "pkg"}}
	expB, _ := fw.Install(Definition{Manifest: exp})
	imp := manifest.New("importer", manifest.MustParseVersion("1.0"))
	imp.Imports = []manifest.PackageImport{{Name: "pkg", Range: manifest.AnyVersion}}
	impB, _ := fw.Install(Definition{Manifest: imp})
	if err := resolve(fw, impB); err != nil {
		t.Fatal(err)
	}
	var unresolvedSeen bool
	fw.AddBundleListener(BundleListenerFunc(func(ev BundleEvent) {
		if ev.Type == BundleUnresolved && ev.Bundle == impB {
			unresolvedSeen = true
		}
	}))
	if err := expB.Uninstall(); err != nil {
		t.Fatal(err)
	}
	if impB.State() != Installed {
		t.Fatalf("importer state = %v, want INSTALLED", impB.State())
	}
	if !unresolvedSeen {
		t.Fatal("no UNRESOLVED event for importer")
	}
}

func TestShutdownStopsAllAndBlocksInstall(t *testing.T) {
	fw := NewFramework()
	acts := make([]*testActivator, 3)
	for i := range acts {
		acts[i] = &testActivator{}
		b, err := fw.Install(defWithActivator(fmt.Sprintf("b%d", i), "1.0", acts[i]))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, a := range acts {
		if a.stopped != 1 {
			t.Fatalf("activator %d not stopped", i)
		}
	}
	if _, err := fw.Install(def("late", "1.0")); !errors.Is(err, ErrFrameworkStopped) {
		t.Fatalf("install after shutdown: %v", err)
	}
}

func TestBundleByName(t *testing.T) {
	fw := NewFramework()
	if fw.BundleByName("a") != nil {
		t.Fatal("phantom bundle")
	}
	if _, err := fw.Install(def("a", "1.0")); err != nil {
		t.Fatal(err)
	}
	b2, _ := fw.Install(def("a", "2.0"))
	if got := fw.BundleByName("a"); got != b2 {
		t.Fatalf("BundleByName picked %v, want highest version", got)
	}
}

func TestResourceLookup(t *testing.T) {
	d := def("a", "1.0")
	d.Resources = map[string]string{"OSGI-INF/c.xml": "<xml/>"}
	fw := NewFramework()
	b, _ := fw.Install(d)
	if got, ok := b.Resource("OSGI-INF/c.xml"); !ok || got != "<xml/>" {
		t.Fatalf("Resource = %q, %v", got, ok)
	}
	if _, ok := b.Resource("nope"); ok {
		t.Fatal("phantom resource")
	}
}

func TestStateStrings(t *testing.T) {
	for _, s := range []State{Installed, Resolved, Starting, Active, Stopping, Uninstalled} {
		if s.String() == "" || s.String()[0] == 'S' && s != Starting && s != Stopping {
			// just exercise; detailed text checked below
			_ = s
		}
	}
	if Installed.String() != "INSTALLED" || Active.String() != "ACTIVE" {
		t.Fatal("state strings wrong")
	}
	if State(42).String() != "State(42)" {
		t.Fatal("unknown state string")
	}
}

func mustRange(s string) manifest.Range {
	r, err := manifest.ParseRange(s)
	if err != nil {
		panic(err)
	}
	return r
}

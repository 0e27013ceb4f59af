package osgi

import (
	"strings"
	"testing"

	"repro/internal/manifest"
)

func exporter(t *testing.T, fw *Framework, symbolic, pkg, version string) *Bundle {
	t.Helper()
	m := manifest.New(symbolic, manifest.MustParseVersion("1.0"))
	m.Exports = []manifest.PackageExport{{Name: pkg, Version: manifest.MustParseVersion(version)}}
	b, err := fw.Install(Definition{Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func importer(t *testing.T, fw *Framework, symbolic, pkg, rng string) *Bundle {
	t.Helper()
	m := manifest.New(symbolic, manifest.MustParseVersion("1.0"))
	m.Imports = []manifest.PackageImport{{Name: pkg, Range: mustRange(rng)}}
	b, err := fw.Install(Definition{Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// resolve wires b's imports as Start does, without starting it.
func resolve(fw *Framework, b *Bundle) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.resolveLocked(b)
}

func TestResolverHonoursVersionRange(t *testing.T) {
	fw := NewFramework()
	exporter(t, fw, "old", "pkg", "1.0")
	exporter(t, fw, "new", "pkg", "3.0")
	imp := importer(t, fw, "imp", "pkg", "[1.0,2.0)")
	if err := resolve(fw, imp); err != nil {
		t.Fatal(err)
	}
	wired := imp.wires["pkg"]
	if wired.SymbolicName() != "old" {
		t.Fatalf("wired to %s; 3.0 is outside [1.0,2.0)", wired.SymbolicName())
	}
}

func TestResolverTieBreaksToOldestBundle(t *testing.T) {
	fw := NewFramework()
	first := exporter(t, fw, "first", "pkg", "1.0")
	exporter(t, fw, "second", "pkg", "1.0")
	imp := importer(t, fw, "imp", "pkg", "")
	if err := resolve(fw, imp); err != nil {
		t.Fatal(err)
	}
	wired := imp.wires["pkg"]
	if wired != first {
		t.Fatalf("wired to %s, want the oldest bundle", wired.SymbolicName())
	}
}

func TestResolverIgnoresSelfExport(t *testing.T) {
	fw := NewFramework()
	m := manifest.New("selfish", manifest.MustParseVersion("1.0"))
	m.Exports = []manifest.PackageExport{{Name: "pkg"}}
	m.Imports = []manifest.PackageImport{{Name: "pkg", Range: manifest.AnyVersion}}
	b, err := fw.Install(Definition{Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := resolve(fw, b); err == nil {
		t.Fatal("bundle satisfied its own import")
	}
}

func TestResolveErrorNamesMissingImports(t *testing.T) {
	fw := NewFramework()
	m := manifest.New("imp", manifest.MustParseVersion("1.0"))
	m.Imports = []manifest.PackageImport{
		{Name: "gone.a", Range: manifest.AnyVersion},
		{Name: "gone.b", Range: mustRange("[2.0,3.0)")},
	}
	b, err := fw.Install(Definition{Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	err = resolve(fw, b)
	if err == nil {
		t.Fatal("resolved with missing imports")
	}
	for _, want := range []string{"gone.a", "gone.b", "[2.0.0,3.0.0)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestListenerRemovalDuringDispatchSafe(t *testing.T) {
	fw := NewFramework()
	var calls int
	var removeSelf func()
	removeSelf = fw.AddBundleListener(BundleListenerFunc(func(ev BundleEvent) {
		calls++
		removeSelf() // listeners may unsubscribe themselves mid-dispatch
	}))
	if _, err := fw.Install(def("a", "1.0")); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Install(def("b", "1.0")); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (self-removal honoured)", calls)
	}
}

func TestListenerInstallDuringDispatchSafe(t *testing.T) {
	fw := NewFramework()
	installed := 0
	fw.AddBundleListener(BundleListenerFunc(func(ev BundleEvent) {
		installed++
		if ev.Bundle.SymbolicName() == "trigger" {
			// Listeners may install further bundles re-entrantly.
			if _, err := fw.Install(def("nested", "1.0")); err != nil {
				t.Errorf("nested install: %v", err)
			}
		}
	}))
	if _, err := fw.Install(def("trigger", "1.0")); err != nil {
		t.Fatal(err)
	}
	if fw.BundleByName("nested") == nil {
		t.Fatal("nested bundle missing")
	}
	if installed != 2 {
		t.Fatalf("events = %d", installed)
	}
}

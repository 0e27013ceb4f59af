package osgi

import (
	"fmt"

	"repro/internal/manifest"
)

// State is a bundle lifecycle state (OSGi core spec §4.4).
type State int

// Bundle states.
const (
	Installed State = iota + 1
	Resolved
	Starting
	Active
	Stopping
	Uninstalled
)

func (s State) String() string {
	switch s {
	case Installed:
		return "INSTALLED"
	case Resolved:
		return "RESOLVED"
	case Starting:
		return "STARTING"
	case Active:
		return "ACTIVE"
	case Stopping:
		return "STOPPING"
	case Uninstalled:
		return "UNINSTALLED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Activator is the bundle's start/stop hook, the analogue of
// org.osgi.framework.BundleActivator.
type Activator interface {
	Start() error
	Stop() error
}

// Definition is everything needed to install a bundle: its manifest, an
// optional activator, and named resources (descriptor XML files and the
// like, the analogue of entries inside the bundle JAR).
type Definition struct {
	Manifest  *manifest.Manifest
	Activator Activator
	Resources map[string]string
}

// Bundle is an installed bundle.
type Bundle struct {
	id    int64
	def   Definition
	state State
	fw    *Framework
	wires map[string]*Bundle // imported package name -> chosen exporter
}

// SymbolicName returns the bundle's symbolic name.
func (b *Bundle) SymbolicName() string {
	if b.def.Manifest == nil {
		return ""
	}
	return b.def.Manifest.SymbolicName
}

// Version returns the bundle version.
func (b *Bundle) Version() manifest.Version {
	if b.def.Manifest == nil {
		return manifest.Version{}
	}
	return b.def.Manifest.Version
}

// Manifest returns the bundle's manifest.
func (b *Bundle) Manifest() *manifest.Manifest { return b.def.Manifest }

// State returns the current lifecycle state.
func (b *Bundle) State() State {
	b.fw.mu.Lock()
	defer b.fw.mu.Unlock()
	return b.state
}

// Resource returns a named bundle resource (e.g. "OSGI-INF/camera.xml").
func (b *Bundle) Resource(name string) (string, bool) {
	v, ok := b.def.Resources[name]
	return v, ok
}

// Start resolves (if needed) and starts the bundle.
func (b *Bundle) Start() error { return b.fw.startBundle(b) }

// Stop stops the bundle.
func (b *Bundle) Stop() error { return b.fw.stopBundle(b) }

// Uninstall removes the bundle from the framework.
func (b *Bundle) Uninstall() error { return b.fw.uninstallBundle(b) }

// String implements fmt.Stringer.
func (b *Bundle) String() string {
	return fmt.Sprintf("bundle[%d] %s %s", b.id, b.SymbolicName(), b.Version())
}

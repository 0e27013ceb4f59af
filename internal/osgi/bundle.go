package osgi

import (
	"fmt"

	"repro/internal/ldap"
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
	Start(ctx *Context) error
	Stop(ctx *Context) error
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
	id       int64
	def      Definition
	state    State
	fw       *Framework
	ctx      *Context
	wires    map[string]*Bundle // imported package name -> chosen exporter
	regs     []*ServiceRegistration
	persists bool // survived an update; kept for diagnostics
}

// ID returns the framework-assigned bundle id (0 is the system bundle).
func (b *Bundle) ID() int64 { return b.id }

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

// WiredTo reports which bundle satisfies the given imported package, if
// the bundle is resolved.
func (b *Bundle) WiredTo(pkg string) (*Bundle, bool) {
	b.fw.mu.Lock()
	defer b.fw.mu.Unlock()
	e, ok := b.wires[pkg]
	return e, ok
}

// Context returns the bundle's context; nil unless Starting/Active/Stopping.
func (b *Bundle) Context() *Context {
	b.fw.mu.Lock()
	defer b.fw.mu.Unlock()
	return b.ctx
}

// Start resolves (if needed) and starts the bundle.
func (b *Bundle) Start() error { return b.fw.startBundle(b) }

// Stop stops the bundle, unregistering its services.
func (b *Bundle) Stop() error { return b.fw.stopBundle(b) }

// Uninstall removes the bundle from the framework.
func (b *Bundle) Uninstall() error { return b.fw.uninstallBundle(b) }

// Update replaces the bundle's definition in place, keeping its id. An
// active bundle is stopped, updated and restarted.
func (b *Bundle) Update(def Definition) error { return b.fw.updateBundle(b, def) }

// String implements fmt.Stringer.
func (b *Bundle) String() string {
	return fmt.Sprintf("bundle[%d] %s %s", b.id, b.SymbolicName(), b.Version())
}

// Context is the capability a started bundle uses to talk to the
// framework, the analogue of org.osgi.framework.BundleContext.
type Context struct {
	bundle *Bundle
	fw     *Framework
	valid  bool
}

// Bundle returns the owning bundle.
func (c *Context) Bundle() *Bundle { return c.bundle }

// Framework returns the owning framework.
func (c *Context) Framework() *Framework { return c.fw }

// RegisterService publishes a service on behalf of this bundle.
func (c *Context) RegisterService(interfaces []string, object any, props ldap.Properties) (*ServiceRegistration, error) {
	if !c.isValid() {
		return nil, fmt.Errorf("osgi: context of %s is no longer valid", c.bundle.SymbolicName())
	}
	reg, err := c.fw.registerService(c.bundle, interfaces, object, props)
	if err != nil {
		return nil, err
	}
	c.fw.mu.Lock()
	c.bundle.regs = append(c.bundle.regs, reg)
	c.fw.mu.Unlock()
	return reg, nil
}

// ServiceReferences returns matching live service references, best first.
func (c *Context) ServiceReferences(iface string, filter *ldap.Filter) []*ServiceReference {
	return c.fw.getServiceReferences(iface, filter)
}

// ServiceReference returns the best live reference for iface, or nil.
func (c *Context) ServiceReference(iface string) *ServiceReference {
	refs := c.fw.getServiceReferences(iface, nil)
	if len(refs) == 0 {
		return nil
	}
	return refs[0]
}

// Service dereferences a reference to its service object, or nil.
func (c *Context) Service(ref *ServiceReference) any { return c.fw.getService(ref) }

// AddServiceListener subscribes to service events, optionally filtered.
// The returned function unsubscribes.
func (c *Context) AddServiceListener(l ServiceListener, filter *ldap.Filter) (remove func()) {
	return c.fw.AddServiceListener(l, filter)
}

// AddBundleListener subscribes to bundle lifecycle events. The returned
// function unsubscribes.
func (c *Context) AddBundleListener(l BundleListener) (remove func()) {
	return c.fw.AddBundleListener(l)
}

// Bundles lists all installed bundles.
func (c *Context) Bundles() []*Bundle { return c.fw.Bundles() }

func (c *Context) isValid() bool {
	c.fw.mu.Lock()
	defer c.fw.mu.Unlock()
	return c.valid
}

package osgi

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ldap"
)

// Framework is the OSGi-like runtime: it owns the installed bundles, the
// service registry, and event delivery. Methods are safe for concurrent
// use; events are delivered synchronously on the calling goroutine, after
// internal locks are released, so listeners may call back into the
// framework.
type Framework struct {
	mu sync.Mutex

	bundles      map[int64]*Bundle
	nextBundleID int64

	services      map[int64]*ServiceReference
	nextServiceID int64

	bundleListeners  []bundleListenerEntry
	serviceListeners []serviceListenerEntry
	nextListenerID   int64

	stopped bool
}

type serviceListenerEntry struct {
	id     int64
	l      ServiceListener
	filter *ldap.Filter
}

type bundleListenerEntry struct {
	id int64
	l  BundleListener
}

// ErrFrameworkStopped is returned for operations on a shut-down framework.
var ErrFrameworkStopped = errors.New("osgi: framework stopped")

// NewFramework creates an empty running framework.
func NewFramework() *Framework {
	return &Framework{
		bundles:       map[int64]*Bundle{},
		nextBundleID:  1,
		services:      map[int64]*ServiceReference{},
		nextServiceID: 1,
	}
}

// Install adds a bundle in state Installed. Installing two bundles with
// the same symbolic name and version is rejected, as by Equinox defaults.
func (fw *Framework) Install(def Definition) (*Bundle, error) {
	if def.Manifest == nil {
		return nil, errors.New("osgi: bundle definition missing manifest")
	}
	if def.Manifest.SymbolicName == "" {
		return nil, errors.New("osgi: bundle manifest missing symbolic name")
	}
	fw.mu.Lock()
	if fw.stopped {
		fw.mu.Unlock()
		return nil, ErrFrameworkStopped
	}
	for _, b := range fw.bundles {
		if b.state != Uninstalled &&
			b.SymbolicName() == def.Manifest.SymbolicName &&
			b.Version().Compare(def.Manifest.Version) == 0 {
			fw.mu.Unlock()
			return nil, fmt.Errorf("osgi: bundle %s %s already installed",
				def.Manifest.SymbolicName, def.Manifest.Version)
		}
	}
	b := &Bundle{
		id:    fw.nextBundleID,
		def:   def,
		state: Installed,
		fw:    fw,
		wires: map[string]*Bundle{},
	}
	fw.nextBundleID++
	fw.bundles[b.id] = b
	fw.mu.Unlock()
	fw.dispatchBundleEvent(BundleEvent{Type: BundleInstalled, Bundle: b})
	return b, nil
}

// Bundles returns all installed bundles ordered by id.
func (fw *Framework) Bundles() []*Bundle {
	fw.mu.Lock()
	out := make([]*Bundle, 0, len(fw.bundles))
	for _, b := range fw.bundles {
		out = append(out, b)
	}
	fw.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// BundleByName returns the installed bundle with the given symbolic name
// (highest version if several), or nil.
func (fw *Framework) BundleByName(symbolicName string) *Bundle {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var best *Bundle
	for _, b := range fw.bundles {
		if b.state == Uninstalled || b.SymbolicName() != symbolicName {
			continue
		}
		if best == nil || b.Version().Compare(best.Version()) > 0 {
			best = b
		}
	}
	return best
}

// AddBundleListener subscribes to bundle events. The returned function
// unsubscribes; calling it more than once is harmless.
func (fw *Framework) AddBundleListener(l BundleListener) (remove func()) {
	if l == nil {
		return func() {}
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	id := fw.nextListenerID
	fw.nextListenerID++
	fw.bundleListeners = append(fw.bundleListeners, bundleListenerEntry{id: id, l: l})
	return func() {
		fw.mu.Lock()
		defer fw.mu.Unlock()
		for i, e := range fw.bundleListeners {
			if e.id == id {
				fw.bundleListeners = append(fw.bundleListeners[:i], fw.bundleListeners[i+1:]...)
				return
			}
		}
	}
}

// AddServiceListener subscribes to service events; filter may be nil. The
// returned function unsubscribes.
func (fw *Framework) AddServiceListener(l ServiceListener, filter *ldap.Filter) (remove func()) {
	if l == nil {
		return func() {}
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	id := fw.nextListenerID
	fw.nextListenerID++
	fw.serviceListeners = append(fw.serviceListeners, serviceListenerEntry{id: id, l: l, filter: filter})
	return func() {
		fw.mu.Lock()
		defer fw.mu.Unlock()
		for i, e := range fw.serviceListeners {
			if e.id == id {
				fw.serviceListeners = append(fw.serviceListeners[:i], fw.serviceListeners[i+1:]...)
				return
			}
		}
	}
}

// Shutdown stops all active bundles in reverse-id order and stops the
// framework. Further installs are rejected.
func (fw *Framework) Shutdown() error {
	bundles := fw.Bundles()
	var firstErr error
	for i := len(bundles) - 1; i >= 0; i-- {
		b := bundles[i]
		if b.State() == Active {
			if err := fw.stopBundle(b); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	fw.mu.Lock()
	fw.stopped = true
	fw.mu.Unlock()
	return firstErr
}

// startBundle drives Installed/Resolved -> Active.
func (fw *Framework) startBundle(b *Bundle) error {
	fw.mu.Lock()
	if fw.stopped {
		fw.mu.Unlock()
		return ErrFrameworkStopped
	}
	switch b.state {
	case Active, Starting:
		fw.mu.Unlock()
		return nil // already started; idempotent per spec
	case Uninstalled:
		fw.mu.Unlock()
		return fmt.Errorf("osgi: cannot start uninstalled bundle %s", b.SymbolicName())
	case Stopping:
		fw.mu.Unlock()
		return fmt.Errorf("osgi: bundle %s is stopping", b.SymbolicName())
	}
	resolvedNow := false
	if b.state == Installed {
		if err := fw.resolveLocked(b); err != nil {
			fw.mu.Unlock()
			return err
		}
		resolvedNow = true
	}
	b.state = Starting
	fw.mu.Unlock()

	if resolvedNow {
		fw.dispatchBundleEvent(BundleEvent{Type: BundleResolved, Bundle: b})
	}
	fw.dispatchBundleEvent(BundleEvent{Type: BundleStarting, Bundle: b})

	if act := b.def.Activator; act != nil {
		if err := act.Start(); err != nil {
			fw.mu.Lock()
			b.state = Resolved
			fw.mu.Unlock()
			return fmt.Errorf("osgi: activator of %s failed: %w", b.SymbolicName(), err)
		}
	}
	fw.mu.Lock()
	b.state = Active
	fw.mu.Unlock()
	fw.dispatchBundleEvent(BundleEvent{Type: BundleStarted, Bundle: b})
	return nil
}

// stopBundle drives Active -> Resolved.
func (fw *Framework) stopBundle(b *Bundle) error {
	fw.mu.Lock()
	if b.state != Active {
		state := b.state
		fw.mu.Unlock()
		if state == Resolved || state == Installed {
			return nil // stopping a non-started bundle is a no-op
		}
		return fmt.Errorf("osgi: cannot stop bundle %s in state %v", b.SymbolicName(), state)
	}
	b.state = Stopping
	fw.mu.Unlock()
	fw.dispatchBundleEvent(BundleEvent{Type: BundleStopping, Bundle: b})

	var actErr error
	if act := b.def.Activator; act != nil {
		actErr = act.Stop()
	}
	fw.mu.Lock()
	b.state = Resolved
	fw.mu.Unlock()
	fw.dispatchBundleEvent(BundleEvent{Type: BundleStopped, Bundle: b})
	if actErr != nil {
		return fmt.Errorf("osgi: activator stop of %s failed: %w", b.SymbolicName(), actErr)
	}
	return nil
}

// uninstallBundle removes the bundle entirely.
func (fw *Framework) uninstallBundle(b *Bundle) error {
	if b.State() == Active {
		if err := fw.stopBundle(b); err != nil {
			return fmt.Errorf("osgi: stopping before uninstall: %w", err)
		}
	}
	fw.mu.Lock()
	if b.state == Uninstalled {
		fw.mu.Unlock()
		return errors.New("osgi: bundle already uninstalled")
	}
	b.state = Uninstalled
	delete(fw.bundles, b.id)
	// Invalidate wires of bundles importing from this one; they drop back
	// to Installed and must re-resolve.
	var unresolved []*Bundle
	for _, other := range fw.bundles {
		for pkg, exp := range other.wires {
			if exp == b {
				delete(other.wires, pkg)
				if other.state == Resolved {
					other.state = Installed
					unresolved = append(unresolved, other)
				}
			}
		}
	}
	fw.mu.Unlock()
	for _, u := range unresolved {
		fw.dispatchBundleEvent(BundleEvent{Type: BundleUnresolved, Bundle: u})
	}
	fw.dispatchBundleEvent(BundleEvent{Type: BundleUninstalled, Bundle: b})
	return nil
}

func (fw *Framework) dispatchBundleEvent(ev BundleEvent) {
	fw.mu.Lock()
	ls := make([]bundleListenerEntry, len(fw.bundleListeners))
	copy(ls, fw.bundleListeners)
	fw.mu.Unlock()
	for _, e := range ls {
		e.l.BundleChanged(ev)
	}
}

func (fw *Framework) dispatchServiceEvent(ev ServiceEvent) {
	fw.mu.Lock()
	entries := make([]serviceListenerEntry, len(fw.serviceListeners))
	copy(entries, fw.serviceListeners)
	props := ev.Reference.props
	fw.mu.Unlock()
	for _, e := range entries {
		if e.filter.Matches(props) {
			e.l.ServiceChanged(ev)
		}
	}
}

// Package osgi implements the OSGi-like framework substrate the DRCom
// model runs on: bundle lifecycle, manifest-driven package wiring, a
// service registry with RFC 1960 filters, and synchronous event delivery.
//
// It is deliberately a *framework model*, not a class loader: bundle
// "code" is supplied as Go values (activators, resources) rather than
// loaded from JARs, which is the only part of OSGi that cannot be
// reproduced meaningfully in Go. Everything DRCR interacts with —
// lifecycle states and events, service registration and discovery,
// declarative component descriptors shipped as bundle resources — has the
// semantics of the OSGi 4.x core specification.
package osgi

import "fmt"

// BundleEventType enumerates bundle lifecycle event kinds.
type BundleEventType int

// Bundle event kinds (OSGi core spec §4.7).
const (
	BundleInstalled BundleEventType = iota + 1
	BundleResolved
	BundleStarting
	BundleStarted
	BundleStopping
	BundleStopped
	BundleUpdated
	BundleUnresolved
	BundleUninstalled
)

func (t BundleEventType) String() string {
	switch t {
	case BundleInstalled:
		return "INSTALLED"
	case BundleResolved:
		return "RESOLVED"
	case BundleStarting:
		return "STARTING"
	case BundleStarted:
		return "STARTED"
	case BundleStopping:
		return "STOPPING"
	case BundleStopped:
		return "STOPPED"
	case BundleUpdated:
		return "UPDATED"
	case BundleUnresolved:
		return "UNRESOLVED"
	case BundleUninstalled:
		return "UNINSTALLED"
	default:
		return fmt.Sprintf("BundleEventType(%d)", int(t))
	}
}

// BundleEvent reports a bundle lifecycle transition.
type BundleEvent struct {
	Type   BundleEventType
	Bundle *Bundle
}

// BundleListener receives bundle lifecycle events synchronously.
type BundleListener interface {
	BundleChanged(ev BundleEvent)
}

// BundleListenerFunc adapts a function to BundleListener.
type BundleListenerFunc func(ev BundleEvent)

// BundleChanged implements BundleListener.
func (f BundleListenerFunc) BundleChanged(ev BundleEvent) { f(ev) }

// ServiceEventType enumerates service registry event kinds.
type ServiceEventType int

// Service event kinds.
const (
	ServiceRegistered ServiceEventType = iota + 1
	ServiceUnregistering
)

func (t ServiceEventType) String() string {
	switch t {
	case ServiceRegistered:
		return "REGISTERED"
	case ServiceUnregistering:
		return "UNREGISTERING"
	default:
		return fmt.Sprintf("ServiceEventType(%d)", int(t))
	}
}

// ServiceEvent reports a service registry change.
type ServiceEvent struct {
	Type      ServiceEventType
	Reference *ServiceReference
}

// ServiceListener receives service events synchronously.
type ServiceListener interface {
	ServiceChanged(ev ServiceEvent)
}

// ServiceListenerFunc adapts a function to ServiceListener.
type ServiceListenerFunc func(ev ServiceEvent)

// ServiceChanged implements ServiceListener.
func (f ServiceListenerFunc) ServiceChanged(ev ServiceEvent) { f(ev) }

package osgi

import (
	"errors"
	"sort"

	"repro/internal/ldap"
)

// Standard service property keys (OSGi core spec §5.2.5).
const (
	PropObjectClass    = "objectClass"
	PropServiceID      = "service.id"
	PropServiceRanking = "service.ranking"
)

// ErrServiceUnregistered is returned for operations on a dead registration.
var ErrServiceUnregistered = errors.New("osgi: service already unregistered")

// ServiceRegistration is the registrar-side handle to a published service.
type ServiceRegistration struct {
	ref *ServiceReference
}

// ServiceReference is the consumer-side handle to a published service.
type ServiceReference struct {
	id           int64
	interfaces   []string
	props        ldap.Properties
	object       any
	fw           *Framework
	unregistered bool
}

// Property returns a service property (case-insensitive key), or nil.
func (r *ServiceReference) Property(key string) any {
	r.fw.mu.Lock()
	defer r.fw.mu.Unlock()
	return lookupProp(r.props, key)
}

func lookupProp(props ldap.Properties, key string) any {
	if v, ok := props[key]; ok {
		return v
	}
	for k, v := range props {
		if equalFold(k, key) {
			return v
		}
	}
	return nil
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Unregister withdraws the service. Listeners observe ServiceUnregistering
// before the reference becomes invalid.
func (sr *ServiceRegistration) Unregister() error {
	fw := sr.ref.fw
	fw.mu.Lock()
	if sr.ref.unregistered {
		fw.mu.Unlock()
		return ErrServiceUnregistered
	}
	fw.mu.Unlock()
	// Listeners see the service still live during UNREGISTERING, per spec.
	fw.dispatchServiceEvent(ServiceEvent{Type: ServiceUnregistering, Reference: sr.ref})
	fw.mu.Lock()
	sr.ref.unregistered = true
	delete(fw.services, sr.ref.id)
	fw.mu.Unlock()
	return nil
}

// RegisterService publishes object in the framework's registry under the
// given interface names.
func (fw *Framework) RegisterService(interfaces []string, object any, props ldap.Properties) (*ServiceRegistration, error) {
	if len(interfaces) == 0 {
		return nil, errors.New("osgi: service must declare at least one interface")
	}
	if object == nil {
		return nil, errors.New("osgi: nil service object")
	}
	fw.mu.Lock()
	id := fw.nextServiceID
	fw.nextServiceID++
	all := make(ldap.Properties, len(props)+2)
	for k, v := range props {
		all[k] = v
	}
	ifaces := make([]string, len(interfaces))
	copy(ifaces, interfaces)
	all[PropObjectClass] = ifaces
	all[PropServiceID] = id
	ref := &ServiceReference{
		id:         id,
		interfaces: ifaces,
		props:      all,
		object:     object,
		fw:         fw,
	}
	fw.services[id] = ref
	fw.mu.Unlock()
	fw.dispatchServiceEvent(ServiceEvent{Type: ServiceRegistered, Reference: ref})
	return &ServiceRegistration{ref: ref}, nil
}

// ServiceReferences returns live references exposing iface (empty
// string = any) whose properties satisfy filter, best-first: higher
// service.ranking wins, ties broken by lower service.id (older service).
func (fw *Framework) ServiceReferences(iface string, filter *ldap.Filter) []*ServiceReference {
	fw.mu.Lock()
	var refs []*ServiceReference
	for _, ref := range fw.services {
		if ref.unregistered {
			continue
		}
		if iface != "" && !contains(ref.interfaces, iface) {
			continue
		}
		if !filter.Matches(ref.props) {
			continue
		}
		refs = append(refs, ref)
	}
	fw.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool {
		ri, rj := rankingOf(refs[i]), rankingOf(refs[j])
		if ri != rj {
			return ri > rj
		}
		return refs[i].id < refs[j].id
	})
	return refs
}

func rankingOf(r *ServiceReference) int {
	if v, ok := lookupProp(r.props, PropServiceRanking).(int); ok {
		return v
	}
	return 0
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// Service dereferences a service reference; nil if unregistered.
func (fw *Framework) Service(ref *ServiceReference) any {
	if ref == nil {
		return nil
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if ref.unregistered {
		return nil
	}
	return ref.object
}

// Package scr is a miniature OSGi Declarative Services (DS) runtime, the
// component model the paper builds on and contrasts with (§2.1): service
// components declared in XML bundle resources, with references that are
// tracked and bound automatically as target services come and go.
//
// DRCom deliberately goes beyond what this package offers — DS knows
// nothing about real-time contracts, CPU budgets, or port compatibility —
// and having a working DS substrate makes that difference testable
// (TestContrastWithDeclarativeServices). Production never runs DS, so the
// package is made of test files only.
package scr

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ldap"
	"repro/internal/osgi"
)

// Cardinality constrains how many target services a reference needs.
type Cardinality string

// Reference cardinalities, as in the DS specification.
const (
	Optional      Cardinality = "0..1"
	Mandatory     Cardinality = "1..1"
	MultipleOpt   Cardinality = "0..n"
	MultipleMand  Cardinality = "1..n"
	defaultPolicy             = "static"
)

// Description is a parsed DS component description.
type Description struct {
	Name           string
	Implementation string
	Provides       []string
	References     []Reference
	Enabled        bool
}

// Reference is one declared dependency on a service interface.
type Reference struct {
	Name        string
	Interface   string
	Cardinality Cardinality
	Policy      string // "static" or "dynamic"
	Target      *ldap.Filter
}

type xmlComponent struct {
	XMLName        xml.Name `xml:"component"`
	Name           string   `xml:"name,attr"`
	Enabled        string   `xml:"enabled,attr"`
	Implementation struct {
		Class string `xml:"class,attr"`
	} `xml:"implementation"`
	Service struct {
		Provides []struct {
			Interface string `xml:"interface,attr"`
		} `xml:"provide"`
	} `xml:"service"`
	References []struct {
		Name        string `xml:"name,attr"`
		Interface   string `xml:"interface,attr"`
		Cardinality string `xml:"cardinality,attr"`
		Policy      string `xml:"policy,attr"`
		Target      string `xml:"target,attr"`
	} `xml:"reference"`
}

// ParseDescription reads a DS component XML document.
func ParseDescription(src string) (*Description, error) {
	var xc xmlComponent
	if err := xml.Unmarshal([]byte(src), &xc); err != nil {
		return nil, fmt.Errorf("scr: parsing component XML: %w", err)
	}
	if strings.TrimSpace(xc.Name) == "" {
		return nil, errors.New("scr: component missing name")
	}
	if strings.TrimSpace(xc.Implementation.Class) == "" {
		return nil, fmt.Errorf("scr: component %s missing implementation class", xc.Name)
	}
	d := &Description{
		Name:           xc.Name,
		Implementation: xc.Implementation.Class,
		Enabled:        xc.Enabled != "false",
	}
	for _, p := range xc.Service.Provides {
		if p.Interface == "" {
			return nil, fmt.Errorf("scr: component %s: provide without interface", xc.Name)
		}
		d.Provides = append(d.Provides, p.Interface)
	}
	for _, r := range xc.References {
		if r.Interface == "" {
			return nil, fmt.Errorf("scr: component %s: reference %q without interface", xc.Name, r.Name)
		}
		ref := Reference{
			Name:        r.Name,
			Interface:   r.Interface,
			Cardinality: Cardinality(r.Cardinality),
			Policy:      r.Policy,
		}
		if ref.Cardinality == "" {
			ref.Cardinality = Mandatory
		}
		switch ref.Cardinality {
		case Optional, Mandatory, MultipleOpt, MultipleMand:
		default:
			return nil, fmt.Errorf("scr: component %s: bad cardinality %q", xc.Name, r.Cardinality)
		}
		if ref.Policy == "" {
			ref.Policy = defaultPolicy
		}
		if ref.Policy != "static" && ref.Policy != "dynamic" {
			return nil, fmt.Errorf("scr: component %s: bad policy %q", xc.Name, r.Policy)
		}
		if r.Target != "" {
			f, err := ldap.Parse(r.Target)
			if err != nil {
				return nil, fmt.Errorf("scr: component %s: target filter: %w", xc.Name, err)
			}
			ref.Target = f
		}
		d.References = append(d.References, ref)
	}
	return d, nil
}

// Instance is the component implementation contract: the analogue of a DS
// component class with activate/deactivate lifecycle methods.
type Instance interface {
	Activate(cc *ComponentContext) error
	Deactivate()
}

// Rebinder is the optional dynamic-policy contract: an active instance
// implementing it has its references rebound in place when matching
// services come or go (all declared references must use policy
// "dynamic"), instead of the deactivate/reactivate cycle static policy
// mandates.
type Rebinder interface {
	Rebind(cc *ComponentContext)
}

// Factory constructs instances for an implementation class name.
type Factory func() Instance

// ComponentContext is what an activated instance sees.
type ComponentContext struct {
	Description *Description
	Bundle      *osgi.Bundle
	services    map[string][]any
}

// BoundServices returns the services bound to the named reference.
func (cc *ComponentContext) BoundServices(refName string) []any {
	out := make([]any, len(cc.services[refName]))
	copy(out, cc.services[refName])
	return out
}

// ComponentState is the DS component lifecycle state.
type ComponentState int

// Component states.
const (
	StateDisabled ComponentState = iota + 1
	StateUnsatisfied
	StateSatisfied
	StateActive
)

func (s ComponentState) String() string {
	switch s {
	case StateDisabled:
		return "DISABLED"
	case StateUnsatisfied:
		return "UNSATISFIED"
	case StateSatisfied:
		return "SATISFIED"
	case StateActive:
		return "ACTIVE"
	default:
		return fmt.Sprintf("ComponentState(%d)", int(s))
	}
}

// Component is a managed DS component.
type Component struct {
	desc      *Description
	bundle    *osgi.Bundle
	state     ComponentState
	instance  Instance
	regs      []*osgi.ServiceRegistration
	lastBound map[string][]any // dynamic policy: last binding snapshot
}

// Name returns the component name.
func (c *Component) Name() string { return c.desc.Name }

// State returns the component state.
func (c *Component) State() ComponentState { return c.state }

// Runtime is the SCR: it scans started bundles for Service-Component
// descriptors, instantiates components whose references are satisfied,
// and reacts to service arrival/departure.
type Runtime struct {
	mu         sync.Mutex
	fw         *osgi.Framework
	factories  map[string]Factory
	comps      map[string]*Component
	removeB    func()
	removeS    func()
	evaluating bool
	dirty      bool
}

// NewRuntime attaches an SCR to a framework.
func NewRuntime(fw *osgi.Framework) *Runtime {
	rt := &Runtime{
		fw:        fw,
		factories: map[string]Factory{},
		comps:     map[string]*Component{},
	}
	rt.removeB = fw.AddBundleListener(osgi.BundleListenerFunc(rt.bundleChanged))
	rt.removeS = fw.AddServiceListener(osgi.ServiceListenerFunc(rt.serviceChanged), nil)
	return rt
}

// Close detaches the runtime from framework events and deactivates all
// components.
func (rt *Runtime) Close() {
	rt.removeB()
	rt.removeS()
	rt.mu.Lock()
	comps := make([]*Component, 0, len(rt.comps))
	for _, c := range rt.comps {
		comps = append(comps, c)
	}
	rt.comps = map[string]*Component{}
	rt.mu.Unlock()
	for _, c := range comps {
		rt.deactivate(c)
	}
}

// RegisterFactory associates an implementation class name with a
// constructor, the stand-in for Java class loading.
func (rt *Runtime) RegisterFactory(implClass string, f Factory) error {
	if implClass == "" || f == nil {
		return errors.New("scr: factory needs class name and constructor")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.factories[implClass]; dup {
		return fmt.Errorf("scr: factory for %q already registered", implClass)
	}
	rt.factories[implClass] = f
	return nil
}

// Component looks up a managed component by name.
func (rt *Runtime) Component(name string) (*Component, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.comps[name]
	return c, ok
}

// Components lists managed components sorted by name.
func (rt *Runtime) Components() []*Component {
	rt.mu.Lock()
	out := make([]*Component, 0, len(rt.comps))
	for _, c := range rt.comps {
		out = append(out, c)
	}
	rt.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].desc.Name < out[j].desc.Name })
	return out
}

func (rt *Runtime) bundleChanged(ev osgi.BundleEvent) {
	switch ev.Type {
	case osgi.BundleStarted:
		rt.addBundleComponents(ev.Bundle)
	case osgi.BundleStopping, osgi.BundleStopped, osgi.BundleUninstalled:
		rt.removeBundleComponents(ev.Bundle)
	}
}

func (rt *Runtime) serviceChanged(osgi.ServiceEvent) {
	// Any registry change can satisfy or break references.
	rt.Reevaluate()
}

func (rt *Runtime) addBundleComponents(b *osgi.Bundle) {
	m := b.Manifest()
	if m == nil {
		return
	}
	for _, res := range m.ServiceComponents {
		src, ok := b.Resource(res)
		if !ok {
			continue
		}
		desc, err := ParseDescription(src)
		if err != nil {
			continue // malformed descriptors are skipped, as by real SCR
		}
		rt.mu.Lock()
		if _, dup := rt.comps[desc.Name]; dup {
			rt.mu.Unlock()
			continue
		}
		st := StateUnsatisfied
		if !desc.Enabled {
			st = StateDisabled
		}
		rt.comps[desc.Name] = &Component{desc: desc, bundle: b, state: st}
		rt.mu.Unlock()
	}
	rt.Reevaluate()
}

func (rt *Runtime) removeBundleComponents(b *osgi.Bundle) {
	rt.mu.Lock()
	var victims []*Component
	for name, c := range rt.comps {
		if c.bundle == b {
			victims = append(victims, c)
			delete(rt.comps, name)
		}
	}
	rt.mu.Unlock()
	for _, c := range victims {
		rt.deactivate(c)
	}
	rt.Reevaluate()
}

// Reevaluate re-checks reference satisfaction for every component,
// activating and deactivating as needed, until a fixed point is reached.
// Re-entrant calls (service events fired by activations in progress) are
// coalesced into an extra pass instead of recursing.
func (rt *Runtime) Reevaluate() {
	rt.mu.Lock()
	if rt.evaluating {
		rt.dirty = true
		rt.mu.Unlock()
		return
	}
	rt.evaluating = true
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		rt.evaluating = false
		rt.mu.Unlock()
	}()
	for i := 0; i < 1000; i++ { // bound: each pass changes at least one state
		changed := rt.reevaluateOnce()
		rt.mu.Lock()
		dirty := rt.dirty
		rt.dirty = false
		rt.mu.Unlock()
		if !changed && !dirty {
			return
		}
	}
}

func (rt *Runtime) reevaluateOnce() (changed bool) {
	for _, c := range rt.Components() {
		rt.mu.Lock()
		state := c.state
		rt.mu.Unlock()
		switch state {
		case StateDisabled:
			continue
		case StateActive:
			if !rt.satisfied(c.desc) {
				rt.deactivate(c)
				changed = true
				continue
			}
			if rt.rebind(c) {
				changed = true
			}
		default:
			if rt.satisfied(c.desc) {
				if rt.activate(c) {
					changed = true
				}
			}
		}
	}
	return changed
}

// rebind refreshes a dynamic component's bound services in place. It
// reports whether the binding set changed.
func (rt *Runtime) rebind(c *Component) bool {
	rt.mu.Lock()
	inst := c.instance
	rt.mu.Unlock()
	rb, ok := inst.(Rebinder)
	if !ok || !allDynamic(c.desc) {
		return false
	}
	cc := rt.buildContext(c)
	if bindingsEqual(c.lastBound, cc.services) {
		return false
	}
	rt.mu.Lock()
	c.lastBound = cc.services
	rt.mu.Unlock()
	rb.Rebind(cc)
	return true
}

func allDynamic(d *Description) bool {
	for _, ref := range d.References {
		if ref.Policy != "dynamic" {
			return false
		}
	}
	return len(d.References) > 0
}

func bindingsEqual(a, b map[string][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// buildContext snapshots the services currently matching each reference.
func (rt *Runtime) buildContext(c *Component) *ComponentContext {
	cc := &ComponentContext{
		Description: c.desc,
		Bundle:      c.bundle,
		services:    map[string][]any{},
	}
	for _, ref := range c.desc.References {
		for _, sref := range rt.fw.ServiceReferences(ref.Interface, ref.Target) {
			if svc := rt.fw.Service(sref); svc != nil {
				cc.services[ref.Name] = append(cc.services[ref.Name], svc)
				if ref.Cardinality == Optional || ref.Cardinality == Mandatory {
					break
				}
			}
		}
	}
	return cc
}

func (rt *Runtime) satisfied(d *Description) bool {
	for _, ref := range d.References {
		if ref.Cardinality != Mandatory && ref.Cardinality != MultipleMand {
			continue
		}
		if len(rt.fw.ServiceReferences(ref.Interface, ref.Target)) == 0 {
			return false
		}
	}
	return true
}

func (rt *Runtime) activate(c *Component) bool {
	rt.mu.Lock()
	if c.state == StateActive {
		rt.mu.Unlock()
		return false
	}
	factory := rt.factories[c.desc.Implementation]
	rt.mu.Unlock()
	if factory == nil {
		return false // no code to instantiate yet
	}
	cc := rt.buildContext(c)
	inst := factory()
	if err := inst.Activate(cc); err != nil {
		return false
	}
	// Mark active before publishing provided services: registration fires
	// service events that re-enter Reevaluate.
	rt.mu.Lock()
	c.instance = inst
	c.state = StateActive
	c.lastBound = cc.services
	rt.mu.Unlock()
	var regs []*osgi.ServiceRegistration
	if len(c.desc.Provides) > 0 {
		if reg, err := rt.fw.RegisterService(c.desc.Provides, inst, ldap.Properties{
			"component.name": c.desc.Name,
		}); err == nil {
			regs = append(regs, reg)
		}
	}
	rt.mu.Lock()
	c.regs = regs
	rt.mu.Unlock()
	return true
}

func (rt *Runtime) deactivate(c *Component) {
	rt.mu.Lock()
	inst := c.instance
	regs := c.regs
	c.instance = nil
	c.regs = nil
	c.lastBound = nil
	if c.state == StateActive || c.state == StateSatisfied {
		c.state = StateUnsatisfied
	}
	rt.mu.Unlock()
	for _, reg := range regs {
		_ = reg.Unregister() // already-gone registrations are fine
	}
	if inst != nil {
		inst.Deactivate()
	}
}

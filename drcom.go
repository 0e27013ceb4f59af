// Package drcom is the public face of the declarative real-time OSGi
// component model (DRCom) reproduction: one System value wires together
// the OSGi-like framework, the simulated RTAI kernel, and the DRCR
// runtime, so applications deal only with descriptors, bundles, and
// management services.
//
// Quickstart:
//
//	sys, err := drcom.NewSystem(drcom.Config{})
//	if err != nil { ... }
//	defer sys.Close()
//	err = sys.DeployXML(`<component name="camera" ...>...</component>`)
//	err = sys.Run(time.Second) // advance simulated time
//	info, _ := sys.Component("camera")
package drcom

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/adl"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/ldap"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Re-exported types, so typical applications import only this package.
type (
	// LoadMode is the system load regime (light or stress).
	LoadMode = rtos.LoadMode
	// State is the DRCom component lifecycle state of Figure 1.
	State = core.State
	// Info is a read-only component snapshot.
	Info = core.Info
	// Event is one lifecycle transition record.
	Event = core.Event
	// Management is the per-component management service of §2.4.
	Management = core.Management
	// Resolver is the pluggable resolving-service contract.
	Resolver = policy.Resolver
	// Contract is a component's declared real-time contract.
	Contract = policy.Contract
	// View is the DRCR's global contract view.
	View = policy.View
	// Decision is a resolving service's verdict.
	Decision = policy.Decision
	// Time is a point in simulated time.
	Time = sim.Time
	// Observer is the read-only observability view: live spans, causal
	// chains, metric snapshots, trace digests.
	Observer = obs.Observer
	// Span is one traced DRCR decision.
	Span = obs.Span
	// MetricsSnapshot is the stable-ordered metrics export.
	MetricsSnapshot = obs.Snapshot

	// Plan is a batch that passed the typed-port check (version ranges,
	// structural datatypes), with its wiring table.
	Plan = core.Plan
	// PlanRejectError aggregates the typed port conflicts that made a
	// bundle impossible to compose; DeployBundle returns it before
	// anything is installed.
	PlanRejectError = core.PlanRejectError
	// PortIncompatibility names one conflicting port pair and why the
	// provider cannot satisfy the consumer (version range vs. structural
	// datatype mismatch).
	PortIncompatibility = core.PortIncompatibility

	// Built-in resolving services, re-exported for convenience.
	Utilization = policy.Utilization
	RMA         = policy.RMA
	EDF         = policy.EDF
	Chain       = policy.Chain
	Static      = policy.Static
	// Func adapts a closure to a customized resolving service.
	Func = policy.Func
)

// Re-exported constants.
const (
	LightLoad  = rtos.LightLoad
	StressLoad = rtos.StressLoad

	// Scheduling disciplines for Config.Policy.
	FixedPriority         = rtos.FixedPriority
	EarliestDeadlineFirst = rtos.EarliestDeadlineFirst

	Disabled    = core.Disabled
	Unsatisfied = core.Unsatisfied
	Satisfied   = core.Satisfied
	Active      = core.Active
	Suspended   = core.Suspended
	Destroyed   = core.Destroyed

	// ManagementInterface is the registry name of management services.
	ManagementInterface = core.ManagementInterface
	// ResolverInterface is the registry name customized resolving
	// services are published under.
	ResolverInterface = policy.ServiceInterface
)

// Config parameterises a System.
type Config struct {
	// NumCPUs sets the simulated processor count (default 1; the paper's
	// testbed was a dual-core machine, so 2 is common).
	NumCPUs int
	// Seed drives all simulation randomness (default 1).
	Seed uint64
	// Mode is the initial load regime (default LightLoad).
	Mode LoadMode
	// Quantum is the round-robin slice among equal priorities; zero
	// selects the 100µs default, negative disables rotation.
	Quantum time.Duration
	// Internal overrides the DRCR's internal resolving service (default
	// utilization admission with bound 1.0).
	Internal Resolver
	// ExecJitter is the fractional execution-time variance of component
	// tasks (default 0.05; negative disables).
	ExecJitter float64
	// Policy selects the kernel's dispatch discipline; default the
	// paper's fixed-priority + round-robin. EDF is available as an
	// extension (see Ablation D).
	Policy rtos.SchedPolicy
}

// System owns one complete DRCom stack.
type System struct {
	fw     *osgi.Framework
	kernel *rtos.Kernel
	drcr   *core.DRCR
	closed bool
}

// NewSystem boots a framework, a kernel and a DRCR.
func NewSystem(cfg Config) (*System, error) {
	fw := osgi.NewFramework()
	kernel := rtos.NewKernel(rtos.Config{
		NumCPUs: cfg.NumCPUs,
		Seed:    cfg.Seed,
		Mode:    cfg.Mode,
		Quantum: cfg.Quantum,
		Policy:  cfg.Policy,
	})
	d, err := core.New(fw, kernel, core.Options{
		Internal:   cfg.Internal,
		ExecJitter: cfg.ExecJitter,
	})
	if err != nil {
		return nil, err
	}
	return &System{fw: fw, kernel: kernel, drcr: d}, nil
}

// Framework exposes the underlying OSGi-like framework.
func (s *System) Framework() *osgi.Framework { return s.fw }

// Kernel exposes the simulated RTAI kernel.
func (s *System) Kernel() *rtos.Kernel { return s.kernel }

// DRCR exposes the component runtime.
func (s *System) DRCR() *core.DRCR { return s.drcr }

// Now reports the current simulated time.
func (s *System) Now() Time { return s.kernel.Now() }

// Run advances simulated time by d, executing everything due.
func (s *System) Run(d time.Duration) error { return s.kernel.Run(d) }

// SetLoadMode switches between the light and stress regimes at run time.
func (s *System) SetLoadMode(m LoadMode) { s.kernel.SetLoadMode(m) }

// DeployXML parses, validates and deploys one component descriptor.
func (s *System) DeployXML(src string) error {
	desc, err := descriptor.Parse(src)
	if err != nil {
		return err
	}
	return s.drcr.Deploy(desc)
}

// DeployBundle installs and starts a bundle carrying the given DRCom
// descriptors (resource path → XML), the way the paper's components are
// "delivered as individual bundles". Resources are installed in sorted
// path order, so the deploy is deterministic regardless of map order.
//
// Before anything is installed, the descriptor set runs the typed-port
// check: a typed port conflict — a provider speaks a
// consumer's topic but fails its version range or structural datatype —
// rejects the whole bundle with a *PlanRejectError naming the exact
// port pair, instead of installing components doomed to wait or be
// denied. The bundle start that follows installs every descriptor and
// resolves them in one worklist drain; the plan only checks.
func (s *System) DeployBundle(symbolicName, version string, descriptors map[string]string) (*osgi.Bundle, error) {
	if len(descriptors) == 0 {
		return nil, errors.New("drcom: bundle needs at least one descriptor")
	}
	v, err := manifest.ParseVersion(version)
	if err != nil {
		return nil, fmt.Errorf("drcom: %w", err)
	}
	paths := make([]string, 0, len(descriptors))
	for path := range descriptors {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	m := manifest.New(symbolicName, v)
	resources := map[string]string{}
	var descs []*descriptor.Component
	for _, path := range paths {
		src := descriptors[path]
		// A valid descriptor needs no sniff. One that fails validation
		// but is still a DRCom document installs and is skipped at
		// adoption.
		if desc, err := descriptor.Parse(src); err == nil {
			descs = append(descs, desc)
		} else if err := descriptor.Sniff(src); err != nil {
			return nil, fmt.Errorf("drcom: resource %s: %w", path, err)
		}
		m.DRComComponents = append(m.DRComComponents, path)
		resources[path] = src
	}
	if len(descs) > 0 {
		if _, err := s.drcr.CompilePlan(descs); err != nil {
			return nil, err
		}
	}
	b, err := s.fw.Install(osgi.Definition{Manifest: m, Resources: resources})
	if err != nil {
		return nil, err
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	return b, nil
}

// CompilePlan runs the typed-port check on a set of descriptor sources
// in the given order, against the system's admitted providers — what the
// console's `plan` command renders. A typed port conflict returns a
// *PlanRejectError.
func (s *System) CompilePlan(srcs []string) (*Plan, error) {
	descs, err := descriptor.ParseAll(srcs)
	if err != nil {
		return nil, err
	}
	return s.drcr.CompilePlan(descs)
}

// DeployApplication parses an ADL application document plus the component
// descriptors it references, validates the architecture (connections,
// port compatibility, coverage, acyclicity), and deploys the members in
// provider-before-consumer order.
func (s *System) DeployApplication(appSrc string, componentSrcs []string) error {
	app, err := adl.Parse(appSrc)
	if err != nil {
		return err
	}
	comps, err := descriptor.ParseAll(componentSrcs)
	if err != nil {
		return err
	}
	byName := make(map[string]*descriptor.Component, len(comps))
	for _, c := range comps {
		byName[c.Name] = c
	}
	return adl.Deploy(s.drcr, app, byName)
}

// RegisterBody binds a descriptor bincode to a functional routine.
func (s *System) RegisterBody(bincode string, f core.BodyFactory) error {
	return s.drcr.RegisterBody(bincode, f)
}

// RegisterResolver publishes a customized resolving service in the
// registry; the DRCR consults it on every admission. The returned
// function withdraws it.
func (s *System) RegisterResolver(r Resolver) (remove func(), err error) {
	if r == nil {
		return nil, errors.New("drcom: nil resolver")
	}
	reg, err := s.fw.RegisterService([]string{ResolverInterface}, r, ldap.Properties{
		"resolver.name": r.Name(),
	})
	if err != nil {
		return nil, err
	}
	// New resolvers can change past denials; re-resolve immediately.
	s.drcr.Resolve()
	return func() {
		_ = reg.Unregister()
		s.drcr.Resolve()
	}, nil
}

// Component returns a snapshot of one component.
func (s *System) Component(name string) (Info, bool) { return s.drcr.Component(name) }

// Components lists snapshots of all components.
func (s *System) Components() []Info { return s.drcr.Components() }

// Management returns a component's live management service.
func (s *System) Management(name string) (Management, bool) { return s.drcr.Management(name) }

// Enable enables a disabled component (enableRTComponent).
func (s *System) Enable(name string) error { return s.drcr.Enable(name) }

// Disable disables a component, deactivating it if needed.
func (s *System) Disable(name string) error { return s.drcr.Disable(name) }

// Suspend suspends an active component via its management interface.
func (s *System) Suspend(name string) error { return s.drcr.Suspend(name) }

// Resume resumes a suspended component.
func (s *System) Resume(name string) error { return s.drcr.Resume(name) }

// Remove destroys a component and re-resolves dependants.
func (s *System) Remove(name string) error { return s.drcr.Remove(name) }

// Downgrade steps an active component down one declared service mode; it
// keeps serving under the cheaper contract.
func (s *System) Downgrade(name, reason string) error { return s.drcr.Downgrade(name, reason) }

// AllowPromotion lifts the promotion hold a Downgrade left, letting the
// resolver step the component back toward its full contract.
func (s *System) AllowPromotion(name string) error { return s.drcr.AllowPromotion(name) }

// Crash abruptly fails a component: it lands DISABLED, where only a
// restart supervisor or an explicit Enable brings it back.
func (s *System) Crash(name, reason string) error { return s.drcr.Crash(name, reason) }

// GlobalView returns the DRCR's admission view of promised contracts.
func (s *System) GlobalView() View { return s.drcr.GlobalView() }

// Observer returns the read-only management view of the observability
// plane: live spans, per-component causal chains (`why`), and metric
// snapshots over every subsystem.
func (s *System) Observer() Observer { return s.drcr.Observer() }

// Events returns the lifecycle event log.
func (s *System) Events() []Event { return s.drcr.Events() }

// AddListener subscribes to lifecycle events.
func (s *System) AddListener(f func(Event)) (remove func()) { return s.drcr.AddListener(f) }

// Close shuts the DRCR and the framework down.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.drcr.Close()
	_ = s.fw.Shutdown()
}

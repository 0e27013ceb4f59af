// Package adapt implements adaptation managers — the external controllers
// the paper's §2.4 anticipates: "General or application specific
// adaptation managers can monitor the tasks status and adjust the
// parameter or even change the application structure according to
// current available resources and system requirements."
//
// A Manager periodically samples every component's health through the
// management services the DRCR publishes, feeds the snapshot to a
// pluggable Policy, and applies the returned actions (suspend, resume,
// set-property, disable) through the DRCR — never through component
// back-doors, so the global view stays accurate.
package adapt

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hrc"
	"repro/internal/sim"
)

// Health is one component's snapshot at a check.
type Health struct {
	Info core.Info
	// Status is the HRC status snapshot; zero for non-active components.
	Status hrc.Status
	// MissesDelta is the number of deadline misses since the previous
	// check.
	MissesDelta uint64
	// SkipsDelta is the number of skipped releases since the previous
	// check.
	SkipsDelta uint64
	// Misses, Skips and Consumed are the live kernel task counters —
	// fresher than the HRC status snapshot, which refreshes only once per
	// job (up to one period stale). Zero for components with no task.
	Misses   uint64
	Skips    uint64
	Consumed time.Duration
	// ConsumedDelta is the CPU time the component's task consumed since
	// the previous check (zero right after the task is recreated).
	ConsumedDelta time.Duration
}

// ActionKind enumerates what a policy may ask for.
type ActionKind int

// Action kinds.
const (
	ActSuspend ActionKind = iota + 1
	ActResume
	ActSetProperty
	ActDisable
	// ActDowngrade steps the component down one declared service mode; it
	// keeps serving under the cheaper contract instead of stopping.
	ActDowngrade
	// ActPromote lifts the promotion hold a previous downgrade left, so
	// the resolver may step the component back toward its full contract.
	ActPromote
)

func (k ActionKind) String() string {
	switch k {
	case ActSuspend:
		return "suspend"
	case ActResume:
		return "resume"
	case ActSetProperty:
		return "set-property"
	case ActDisable:
		return "disable"
	case ActDowngrade:
		return "downgrade"
	case ActPromote:
		return "promote"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one adaptation step.
type Action struct {
	Kind      ActionKind
	Component string
	Key       string // for ActSetProperty
	Value     string // for ActSetProperty
	Reason    string
}

// Applied records an executed (or failed) action.
type Applied struct {
	At     sim.Time
	Action Action
	Err    error
}

// Policy decides what to do given the current health snapshot. The
// manager guarantees the snapshot is ordered by component name.
type Policy interface {
	Name() string
	Decide(snapshot []Health) []Action
}

// Manager drives a Policy on a fixed simulated-time cadence.
type Manager struct {
	drcr     *core.DRCR
	policy   Policy
	interval time.Duration

	lastMisses   map[string]uint64
	lastSkips    map[string]uint64
	lastConsumed map[string]time.Duration
	// grace suppresses miss/skip deltas for a component's next N checks
	// after a resume: the HRC status snapshot is refreshed only when the
	// task runs, so the first post-resume publication reveals stale
	// pre-suspension misses that must not be read as fresh overload.
	grace   map[string]int
	history []Applied
	tick    *sim.Event
	running bool
}

// New builds a manager; interval must be positive.
func New(d *core.DRCR, p Policy, interval time.Duration) (*Manager, error) {
	if d == nil || p == nil {
		return nil, errors.New("adapt: manager needs a DRCR and a policy")
	}
	if interval <= 0 {
		return nil, errors.New("adapt: interval must be positive")
	}
	return &Manager{
		drcr:         d,
		policy:       p,
		interval:     interval,
		lastMisses:   map[string]uint64{},
		lastSkips:    map[string]uint64{},
		lastConsumed: map[string]time.Duration{},
		grace:        map[string]int{},
	}, nil
}

// Start schedules periodic checks on the simulated clock.
func (m *Manager) Start() error {
	if m.running {
		return nil
	}
	m.running = true
	return m.schedule()
}

// Stop cancels future checks.
func (m *Manager) Stop() {
	m.running = false
	if m.tick != nil {
		m.tick.Cancel()
		m.tick = nil
	}
}

// History returns the applied-action log.
func (m *Manager) History() []Applied {
	out := make([]Applied, len(m.history))
	copy(out, m.history)
	return out
}

func (m *Manager) schedule() error {
	clock := m.drcr.Kernel().Clock()
	ev, err := clock.After(m.interval, "adapt:"+m.policy.Name(), func(sim.Time) {
		m.tick = nil
		if !m.running {
			return
		}
		m.CheckNow()
		if m.running {
			if err := m.schedule(); err != nil {
				// Virtual-time scheduling only fails on misuse; record it.
				m.history = append(m.history, Applied{
					At:  clock.Now(),
					Err: err,
				})
			}
		}
	})
	if err != nil {
		return err
	}
	m.tick = ev
	return nil
}

// CheckNow runs one evaluation cycle immediately and returns what was
// applied.
func (m *Manager) CheckNow() []Applied {
	snapshot := m.snapshot()
	actions := m.policy.Decide(snapshot)
	now := m.drcr.Kernel().Now()
	var applied []Applied
	for _, a := range actions {
		err := m.apply(a)
		rec := Applied{At: now, Action: a, Err: err}
		m.history = append(m.history, rec)
		applied = append(applied, rec)
	}
	return applied
}

func (m *Manager) snapshot() []Health {
	infos := m.drcr.Components()
	out := make([]Health, 0, len(infos))
	for _, info := range infos {
		h := Health{Info: info}
		if mgmt, ok := m.drcr.Management(info.Name); ok {
			h.Status = mgmt.Status()
		}
		if task, ok := m.drcr.Kernel().Task(info.Name); ok {
			met := task.Metrics()
			h.Misses, h.Skips, h.Consumed = met.Misses, met.Skips, met.Consumed
			// A re-admitted component starts a fresh task; counters behind
			// the baseline mean recreation, so restart the window.
			if last := m.lastConsumed[info.Name]; met.Consumed >= last {
				h.ConsumedDelta = met.Consumed - last
			}
			m.lastConsumed[info.Name] = met.Consumed
		}
		misses, skips := h.Status.Misses, h.Status.Skips
		h.MissesDelta = misses - m.lastMisses[info.Name]
		h.SkipsDelta = skips - m.lastSkips[info.Name]
		m.lastMisses[info.Name] = misses
		m.lastSkips[info.Name] = skips
		if m.grace[info.Name] > 0 {
			m.grace[info.Name]--
			h.MissesDelta, h.SkipsDelta = 0, 0
		}
		out = append(out, h)
	}
	return out
}

func (m *Manager) apply(a Action) error {
	switch a.Kind {
	case ActSuspend:
		return m.drcr.Suspend(a.Component)
	case ActResume:
		if err := m.drcr.Resume(a.Component); err != nil {
			return err
		}
		m.grace[a.Component] = 2
		return nil
	case ActDisable:
		return m.drcr.Disable(a.Component)
	case ActDowngrade:
		reason := a.Reason
		if reason == "" {
			reason = "adaptation policy"
		}
		if err := m.drcr.Downgrade(a.Component, reason); err != nil {
			return err
		}
		// The mode swap recreates the instance, so the next status snapshot
		// restarts its counters — same stale-delta hazard as a resume.
		m.grace[a.Component] = 2
		return nil
	case ActPromote:
		if err := m.drcr.AllowPromotion(a.Component); err != nil {
			return err
		}
		m.grace[a.Component] = 2
		return nil
	case ActSetProperty:
		mgmt, ok := m.drcr.Management(a.Component)
		if !ok {
			return fmt.Errorf("adapt: no management service for %s", a.Component)
		}
		return mgmt.SetProperty(a.Key, a.Value)
	default:
		return fmt.Errorf("adapt: unknown action %v", a.Kind)
	}
}

// ImportanceShedding is the built-in overload policy: when any component
// misses deadlines, shed load starting from the least important active
// component. Downgrades come before suspensions: as long as any victim
// still has a cheaper declared mode, the least important such victim is
// stepped down its ladder (it keeps serving under the degraded
// contract); only when every ladder is exhausted is the least-important
// component suspended outright (its budget stays admitted but its task
// stops consuming CPU). When the system has been healthy for
// HealthyChecks consecutive checks, the most recent victim is restored:
// resumed if it was suspended, released for re-promotion if it was
// downgraded.
type ImportanceShedding struct {
	// HealthyChecks is how many clean checks must pass before resuming a
	// victim (default 3).
	HealthyChecks int

	shed    []shedEntry // stack of victims, least important first
	healthy int
	settle  int // checks to skip after a shed, letting its effect land
}

// missThreshold is the per-check miss (or skip) count that counts as
// overload.
const missThreshold = 1

// shedEntry remembers how one victim was shed, so recovery can undo it
// with the matching action.
type shedEntry struct {
	name       string
	downgraded bool
}

// Name implements Policy.
func (p *ImportanceShedding) Name() string { return "importance-shedding" }

// Decide implements Policy.
func (p *ImportanceShedding) Decide(snapshot []Health) []Action {
	healthyChecks := p.HealthyChecks
	if healthyChecks <= 0 {
		healthyChecks = 3
	}
	// Drop shed entries whose component no longer exists (bundle gone).
	live := map[string]bool{}
	for _, h := range snapshot {
		live[h.Info.Name] = true
	}
	kept := p.shed[:0]
	for _, e := range p.shed {
		if live[e.name] {
			kept = append(kept, e)
		}
	}
	p.shed = kept
	// After a shed, skip one evaluation: suspension lands asynchronously
	// and backlogged jobs still complete late, so the very next check
	// would misread trailing misses as continued overload.
	if p.settle > 0 {
		p.settle--
		return nil
	}
	overloaded := false
	for _, h := range snapshot {
		// Only active components count: a just-suspended victim keeps
		// reporting trailing misses until its (asynchronous) suspend
		// command is served, and those must not trigger another shed.
		if h.Info.State != core.Active {
			continue
		}
		if h.MissesDelta >= missThreshold || h.SkipsDelta >= missThreshold {
			overloaded = true
			break
		}
	}
	if overloaded {
		p.healthy = 0
		// Prefer downgrade over suspension: a victim with a cheaper
		// declared mode keeps serving while still freeing capacity, so
		// every ladder is walked down before anything is stopped.
		if victim := pickVictim(snapshot, downgradable); victim.Name != "" {
			p.settle = 1
			p.shed = append(p.shed, shedEntry{name: victim.Name, downgraded: true})
			return []Action{{
				Kind:      ActDowngrade,
				Component: victim.Name,
				Reason:    "overload: degrading least-important component",
			}}
		}
		victim := pickVictim(snapshot, nil)
		if victim.Name == "" {
			return nil
		}
		p.settle = 1
		p.shed = append(p.shed, shedEntry{name: victim.Name})
		return []Action{{
			Kind:      ActSuspend,
			Component: victim.Name,
			Reason:    "overload: shedding least-important component",
		}}
	}
	p.healthy++
	if p.healthy >= healthyChecks && len(p.shed) > 0 {
		p.healthy = 0
		// Restore the most important victim first (top of the importance
		// order, end of the shed stack by construction below).
		victim := p.shed[len(p.shed)-1]
		p.shed = p.shed[:len(p.shed)-1]
		if victim.downgraded {
			return []Action{{
				Kind:      ActPromote,
				Component: victim.name,
				Reason:    "system healthy: releasing degraded component for promotion",
			}}
		}
		return []Action{{
			Kind:      ActResume,
			Component: victim.name,
			Reason:    "system healthy: restoring shed component",
		}}
	}
	return nil
}

// downgradable reports whether a component has a cheaper declared mode
// left below its current one.
func downgradable(info core.Info) bool { return info.Mode+1 < len(info.Modes) }

// pickVictim returns the least-important active component accepted by
// the filter (nil accepts all), breaking ties by higher declared budget
// (shedding frees more CPU) then by name.
func pickVictim(snapshot []Health, filter func(core.Info) bool) core.Info {
	var cands []core.Info
	for _, h := range snapshot {
		if h.Info.State == core.Active && (filter == nil || filter(h.Info)) {
			cands = append(cands, h.Info)
		}
	}
	if len(cands) == 0 {
		return core.Info{}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Importance != cands[j].Importance {
			return cands[i].Importance < cands[j].Importance
		}
		if cands[i].CPUUsage != cands[j].CPUUsage {
			return cands[i].CPUUsage > cands[j].CPUUsage
		}
		return cands[i].Name < cands[j].Name
	})
	return cands[0]
}

// Interface-compliance check.
var _ Policy = (*ImportanceShedding)(nil)

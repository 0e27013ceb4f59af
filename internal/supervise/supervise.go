// Package supervise implements the restart plane: a supervisor that
// watches the DRCR for crashed components and brings them back through
// the normal admission path, under a per-component restart budget with
// deterministic exponential backoff, escalating from the component to
// its bundle when restarts alone do not hold.
//
// The paper's runtime (§2.2) reacts to departures by re-resolving the
// survivors; nothing brings a failed component back. The supervisor
// closes that loop for the fault campaigns: a crash (core.Crash, fault
// kind Crash) lands the component DISABLED, the supervisor re-enables it
// after a backoff on the simulated clock, and the DRCR's ordinary
// resolution decides — possibly in a degraded mode — whether it may run
// again. A restart storm inside the budget window escalates: the whole
// bundle is stopped and restarted, re-deploying its components from
// their descriptors; components with no bundle are given up on instead.
package supervise

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/osgi"
	"repro/internal/sim"
)

// Options parameterise the supervisor; the zero value uses the defaults
// below. One policy applies to every supervised component.
type Options struct {
	// MaxRestarts is the restart budget inside a Window: the crash that
	// would exceed it escalates instead of restarting (default 3).
	MaxRestarts int
	// Window is the sliding simulated-time window the budget counts in
	// (default 2s).
	Window time.Duration
	// Backoff is the delay before the first restart; each further strike
	// inside the window doubles it (default 20ms).
	Backoff time.Duration
}

func (o *Options) applyDefaults() {
	if o.MaxRestarts <= 0 {
		o.MaxRestarts = 3
	}
	if o.Window <= 0 {
		o.Window = 2 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 20 * time.Millisecond
	}
}

// Record is one supervisor decision, for the deterministic trace.
type Record struct {
	At        sim.Time
	Action    string // "restart", "escalate", "give-up"
	Component string
	Detail    string
}

// record is the per-component supervision state.
type record struct {
	strikes []sim.Time // crash strike times inside the window
	count   int64      // lifetime restarts issued
	gaveUp  bool
}

// Supervisor watches one DRCR.
type Supervisor struct {
	d    *core.DRCR
	fw   *osgi.Framework
	opts Options

	mu      sync.Mutex
	recs    map[string]*record
	trace   []Record
	pending map[string]*sim.Event
	running bool
	remove  func()
}

// New builds a supervisor over a DRCR and its owning framework.
func New(d *core.DRCR, opts Options) (*Supervisor, error) {
	if d == nil {
		return nil, errors.New("supervise: supervisor needs a DRCR")
	}
	opts.applyDefaults()
	return &Supervisor{
		d:       d,
		fw:      d.Framework(),
		opts:    opts,
		recs:    map[string]*record{},
		pending: map[string]*sim.Event{},
	}, nil
}

// Start subscribes to DRCR lifecycle events.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		return
	}
	s.running = true
	s.mu.Unlock()
	s.remove = s.d.AddListener(s.onEvent)
}

// Stop unsubscribes and cancels scheduled restarts.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if !s.running {
		s.mu.Unlock()
		return
	}
	s.running = false
	remove := s.remove
	s.remove = nil
	for name, ev := range s.pending {
		ev.Cancel()
		delete(s.pending, name)
	}
	s.mu.Unlock()
	if remove != nil {
		remove()
	}
}

// Trace returns a copy of the decision trace.
func (s *Supervisor) Trace() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.trace))
	copy(out, s.trace)
	return out
}

func (s *Supervisor) rec(component string) *record {
	r := s.recs[component]
	if r == nil {
		r = &record{}
		s.recs[component] = r
	}
	return r
}

func (s *Supervisor) pruneLocked(r *record, now sim.Time, window time.Duration) {
	cut := 0
	for cut < len(r.strikes) && now.Sub(r.strikes[cut]) > window {
		cut++
	}
	r.strikes = r.strikes[cut:]
}

// onEvent reacts to crash transitions: a component dropping to DISABLED
// with a crash reason is scheduled for restart or escalated.
func (s *Supervisor) onEvent(e core.Event) {
	if e.To != core.Disabled || !strings.HasPrefix(e.Reason, "crashed") {
		return
	}
	now := s.d.Kernel().Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return
	}
	name := e.Component
	r := s.rec(name)
	if r.gaveUp {
		return
	}
	opts := s.opts
	s.pruneLocked(r, now, opts.Window)
	r.strikes = append(r.strikes, now)
	if len(r.strikes) > opts.MaxRestarts {
		s.escalateLocked(name, now, opts,
			fmt.Sprintf("restart budget exhausted: %d crashes within %v", len(r.strikes), opts.Window))
		return
	}
	// Deterministic exponential backoff: the nth strike inside the window
	// waits 2^(n-1) × Backoff before re-entering admission.
	delay := opts.Backoff << (len(r.strikes) - 1)
	s.scheduleLocked(name, delay, e.Reason)
}

func (s *Supervisor) scheduleLocked(name string, delay time.Duration, why string) {
	clock := s.d.Kernel().Clock()
	ev, err := clock.After(delay, "supervise:restart:"+name, func(at sim.Time) {
		s.mu.Lock()
		if !s.running {
			s.mu.Unlock()
			return
		}
		delete(s.pending, name)
		r := s.rec(name)
		r.count++
		n := r.count
		s.trace = append(s.trace, Record{At: at, Action: "restart", Component: name,
			Detail: fmt.Sprintf("restart #%d after %v (%s)", n, delay, why)})
		s.mu.Unlock()
		plane := s.d.Obs()
		// The restart chains to the open fault on the component (the
		// injected crash), and the re-admission chains to the restart.
		id := plane.Restart(at, name, n, "supervised restart after crash", plane.OpenCause(name))
		plane.PushCause(id)
		_ = s.d.Enable(name)
		plane.PopCause()
	})
	if err != nil {
		s.trace = append(s.trace, Record{At: s.d.Kernel().Now(), Action: "error", Component: name, Detail: err.Error()})
		return
	}
	s.pending[name] = ev
}

// escalateLocked moves up one supervision level: restart the component's
// whole bundle (re-deploying every component it declares), or give the
// component up when it has no bundle. Called with s.mu held.
func (s *Supervisor) escalateLocked(name string, now sim.Time, opts Options, why string) {
	r := s.rec(name)
	r.gaveUp = true // one escalation per component; the fresh deploy starts clean
	plane := s.d.Obs()
	info, ok := s.d.Component(name)
	if !ok || info.Bundle == "" {
		s.trace = append(s.trace, Record{At: now, Action: "give-up", Component: name, Detail: why})
		plane.Escalate(now, name, "", "gave up: "+why, plane.OpenCause(name))
		return
	}
	bundleName := info.Bundle
	s.trace = append(s.trace, Record{At: now, Action: "escalate", Component: name,
		Detail: "restart bundle " + bundleName + ": " + why})
	id := plane.Escalate(now, name, bundleName, why, plane.OpenCause(name))
	// The bundle bounce runs off the clock, not inside the event dispatch
	// that delivered the crash: stopping a bundle destroys components and
	// re-enters resolution.
	clock := s.d.Kernel().Clock()
	ev, err := clock.After(opts.Backoff, "supervise:escalate:"+bundleName, func(at sim.Time) {
		s.mu.Lock()
		delete(s.pending, name)
		running := s.running
		s.mu.Unlock()
		if !running {
			return
		}
		b := s.fw.BundleByName(bundleName)
		if b == nil {
			return
		}
		plane.PushCause(id)
		_ = b.Stop()
		_ = b.Start()
		plane.PopCause()
	})
	if err != nil {
		s.trace = append(s.trace, Record{At: now, Action: "error", Component: name, Detail: err.Error()})
		return
	}
	s.pending[name] = ev
}

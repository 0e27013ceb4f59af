package contract

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/obs"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Options parameterise a Guard. The zero value enforces with the
// defaults below.
type Options struct {
	// Quarantine is how many checks a revoked component sits out before
	// the guard restores its budget and lets the DRCR try re-admission
	// (default 8).
	Quarantine int
	// HealthyReset is how many consecutive clean checks clear a
	// component's accumulated backoff (default 16).
	HealthyReset int
	// Predict enables the forecasting estimator: a component that
	// declares a distribution-valued budget gets a windowed
	// mean/variance + log2-histogram-tail estimator over its measured
	// utilization; when the projected miss probability over the next
	// PredictLead windows exceeds its allowance (1 − declared p), the
	// guard steps it down its mode ladder before the hard miss.
	Predict bool
	// PredictLead is how many windows ahead the utilization trend is
	// projected (default 4).
	PredictLead int
}

func (o *Options) applyDefaults() {
	if o.Quarantine <= 0 {
		o.Quarantine = 8
	}
	if o.HealthyReset <= 0 {
		o.HealthyReset = 16
	}
	if o.PredictLead <= 0 {
		o.PredictLead = 4
	}
}

// The guard's fixed monitoring parameters.
const (
	// checkInterval is the monitoring cadence on the simulated clock.
	checkInterval = 10 * time.Millisecond
	// overrunFactor is the tolerance on the declared budget: measured
	// windowed utilization above cpuusage×factor counts as over budget,
	// absorbing execution jitter and accounting granularity.
	overrunFactor = 1.5
	// overrunChecks is how many consecutive over-budget windows make a
	// BudgetOverrun violation, so a single preemption-skewed window is
	// forgiven.
	overrunChecks = 2
	// missThreshold is the per-window miss+skip count that makes a
	// DeadlineMiss violation.
	missThreshold = 1
	// staleFactor flags a declared SHM outport as stale when it has not
	// been written for factor×period.
	staleFactor = 4
	// backoffFactor multiplies the quarantine each time the same
	// component violates again after a restore (capped at maxBackoff);
	// HealthyReset clean checks reset it.
	backoffFactor = 2
	// predictWindow is how many check windows the estimator remembers.
	predictWindow = 12
	// rearmBand is the forecast hysteresis: after a forecast fires, the
	// estimator stays disarmed until the miss probability drops below
	// allowance×band, so a hovering forecast cannot flap.
	rearmBand = 0.5
)

// maxBackoff caps the quarantine growth at 16× the base quarantine.
const maxBackoff = 16

// monitor is the per-component watch state.
type monitor struct {
	lastConsumed time.Duration
	lastMisses   uint64
	lastSkips    uint64
	overWindows  int
	ports        map[string]*portState
	quarantine   int // checks left before restore, while revoked by us
	modeHold     int // checks left before promotion is allowed again
	backoff      int // quarantine/hold multiplier for the next enforcement
	healthy      int
	revokedByUs  bool
	// quarSpan is the quarantine span opened at revocation; the eventual
	// restore chains to it.
	quarSpan obs.SpanID
	// lastUtil is the utilization measured over the last check window;
	// utilValid is false right after a counter reset.
	lastUtil  float64
	utilValid bool
	// pred is the forecasting estimator, created lazily for
	// budget-declaring components when Options.Predict is on; a
	// downgrade or revocation swaps the task, so the estimator restarts
	// with it.
	pred *predictor
}

type portState struct {
	gen        uint64
	lastChange sim.Time
}

// Guard drives the per-component contract monitors on a fixed
// simulated-time cadence and feeds violations into the DRCR.
type Guard struct {
	d    *core.DRCR
	opts Options

	mons       map[string]*monitor
	forecasts  map[string]Forecast
	violations []Violation
	trace      []Record

	tick    *sim.Event
	running bool
}

// New builds a guard over a DRCR.
func New(d *core.DRCR, opts Options) (*Guard, error) {
	if d == nil {
		return nil, errors.New("contract: guard needs a DRCR")
	}
	opts.applyDefaults()
	return &Guard{d: d, opts: opts, mons: map[string]*monitor{}}, nil
}

// Start schedules periodic checks on the simulated clock.
func (g *Guard) Start() error {
	if g.running {
		return nil
	}
	g.running = true
	return g.schedule()
}

// Stop cancels future checks.
func (g *Guard) Stop() {
	g.running = false
	if g.tick != nil {
		g.tick.Cancel()
		g.tick = nil
	}
}

// Violations returns a copy of every violation detected so far.
func (g *Guard) Violations() []Violation {
	out := make([]Violation, len(g.violations))
	copy(out, g.violations)
	return out
}

// Trace returns a copy of the enforcement trace (violations, revocations,
// restores, in order).
func (g *Guard) Trace() []Record {
	out := make([]Record, len(g.trace))
	copy(out, g.trace)
	return out
}

// TraceDigest is the hex SHA-256 of the formatted enforcement trace; two
// runs of the same seed and fault script must agree byte for byte.
func (g *Guard) TraceDigest() string {
	var b strings.Builder
	for _, r := range g.trace {
		fmt.Fprintf(&b, "%d %s %s %s\n", int64(r.At), r.Action, r.Component, r.Detail)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func (g *Guard) schedule() error {
	clock := g.d.Kernel().Clock()
	ev, err := clock.After(checkInterval, "guard:check", func(sim.Time) {
		g.tick = nil
		if !g.running {
			return
		}
		g.CheckNow()
		if g.running {
			if err := g.schedule(); err != nil {
				// Virtual-time scheduling fails only on misuse; record it.
				g.trace = append(g.trace, Record{
					At: clock.Now(), Action: "error", Detail: err.Error(),
				})
			}
		}
	})
	if err != nil {
		return err
	}
	g.tick = ev
	return nil
}

// action is one enforcement decision collected during the detection
// sweep and applied after it, so simultaneous violations in one window
// step down in deterministic name order (like re-promotion) instead of
// whatever order detection happened to interleave enforcement in.
type action struct {
	name     string
	reason   string
	cause    obs.SpanID
	forecast bool // predictive step-down: only ever spends ladder rungs
}

// CheckNow runs one monitoring pass immediately and returns the
// violations it detected.
func (g *Guard) CheckNow() []Violation {
	k := g.d.Kernel()
	now := k.Now()
	var fired []Violation
	var acts []action
	for _, info := range g.d.Components() {
		m := g.mons[info.Name]
		if m == nil {
			m = &monitor{ports: map[string]*portState{}, backoff: 1}
			g.mons[info.Name] = m
		}
		if info.Revoked && m.revokedByUs {
			m.quarantine--
			if m.quarantine <= 0 {
				m.revokedByUs = false
				// The instance was torn down at revocation; a re-admitted
				// component starts a fresh task, so baselines restart too.
				m.lastConsumed, m.lastMisses, m.lastSkips = 0, 0, 0
				m.overWindows, m.healthy = 0, 0
				m.ports = map[string]*portState{}
				g.record(now, "restore", info.Name, "quarantine served; budget restored")
				// The restore (and the re-admission it triggers) chains to
				// the quarantine span opened at revocation.
				plane := g.d.Obs()
				plane.PushCause(m.quarSpan)
				_ = g.d.RestoreBudget(info.Name)
				plane.PopCause()
				m.quarSpan = 0
			}
			continue
		}
		if info.State != core.Active {
			continue
		}
		// Serve the downgrade hold: once it expires, the DRCR may promote
		// the component back toward its full contract on the next pass. A
		// repeat violation below re-arms it with a doubled backoff.
		if m.modeHold > 0 {
			m.modeHold--
			if m.modeHold <= 0 {
				g.record(now, "release", info.Name, "downgrade hold served; promotion allowed")
				_ = g.d.AllowPromotion(info.Name)
			}
		}
		task, ok := k.Task(info.Name)
		if !ok {
			continue
		}
		vs := g.checkActive(now, info, m, task)
		plane := g.d.Obs()
		var firstVid obs.SpanID
		for _, v := range vs {
			// Tie the violation to the open fault on the component (or on
			// the stalled port — SHM faults target ports by name), so `why`
			// can walk from the consequence back to the injected cause.
			cause := plane.OpenCause(v.Component)
			if cause == 0 && v.Port != "" {
				cause = plane.OpenCause(v.Port)
			}
			vid := plane.Violation(now, v.Component, v.Kind.String(), v.Detail, cause)
			if firstVid == 0 {
				firstVid = vid
			}
			g.violations = append(g.violations, v)
			g.record(now, "violation", v.Component, fmt.Sprintf("%v measured=%.4f limit=%.4f %s", v.Kind, v.Measured, v.Limit, v.Detail))
		}
		fired = append(fired, vs...)
		if len(vs) > 0 {
			acts = append(acts, action{
				name:   info.Name,
				reason: fmt.Sprintf("%v: %s", vs[0].Kind, vs[0].Detail),
				cause:  firstVid,
			})
			continue
		}
		if a, ok := g.predictStep(now, info, m); ok {
			acts = append(acts, a)
			continue
		}
		m.healthy++
		if m.healthy >= g.opts.HealthyReset {
			m.backoff = 1
		}
	}
	// Enforce after the sweep. Components() is name-sorted and each
	// component contributes at most one action, so the collection order
	// IS name order: simultaneous violations step down deterministically.
	for _, a := range acts {
		g.enforce(now, a)
	}
	return fired
}

// enforce applies one collected enforcement action: graceful degradation
// first — a component with a cheaper declared mode steps down and stays
// available; only a violation in its last mode escalates to revocation.
// The hold before re-promotion reuses the quarantine backoff.
func (g *Guard) enforce(now sim.Time, a action) {
	info, ok := g.d.Component(a.name)
	if !ok || info.State != core.Active {
		return
	}
	m := g.mons[a.name]
	if m == nil {
		return
	}
	plane := g.d.Obs()
	if info.Mode+1 < len(info.Modes) {
		m.modeHold = g.opts.Quarantine * m.backoff
		g.bumpBackoff(m)
		m.healthy = 0
		m.overWindows = 0
		// The swap recreates the task and its counters; restart the
		// measurement window (and the estimator with it).
		m.lastConsumed, m.lastMisses, m.lastSkips = 0, 0, 0
		m.ports = map[string]*portState{}
		m.pred = nil
		m.utilValid = false
		verb := "downgrade"
		if a.forecast {
			verb = "predict-downgrade"
		}
		g.record(now, verb, a.name, a.reason)
		plane.PushCause(a.cause)
		_ = g.d.Downgrade(a.name, a.reason)
		plane.PopCause()
		return
	}
	if a.forecast {
		// A forecast never revokes: prediction only spends ladder rungs,
		// the reactive path keeps the last-mode escalation.
		return
	}
	m.revokedByUs = true
	m.quarantine = g.opts.Quarantine * m.backoff
	g.bumpBackoff(m)
	m.healthy = 0
	m.overWindows = 0
	g.record(now, "revoke", a.name, a.reason)
	// The revocation and its cascade chain to the violation.
	plane.PushCause(a.cause)
	_ = g.d.RevokeBudget(a.name, a.reason)
	m.quarSpan = plane.Quarantine(now, a.name, int64(m.quarantine), 0)
	plane.PopCause()
}

func (g *Guard) bumpBackoff(m *monitor) {
	if m.backoff < maxBackoff {
		m.backoff *= backoffFactor
		if m.backoff > maxBackoff {
			m.backoff = maxBackoff
		}
	}
}

// checkActive evaluates one active component's measured behaviour against
// its declared contract and updates the monitor baselines.
func (g *Guard) checkActive(now sim.Time, info core.Info, m *monitor, task *rtos.Task) []Violation {
	var vs []Violation
	met := task.Metrics()

	// Re-admission recreates the task, resetting kernel counters; when the
	// live counters run behind our baselines, restart the window instead of
	// reading a bogus negative delta.
	if met.Consumed < m.lastConsumed || met.Misses < m.lastMisses || met.Skips < m.lastSkips {
		m.lastConsumed, m.lastMisses, m.lastSkips = met.Consumed, met.Misses, met.Skips
		m.overWindows = 0
		m.utilValid = false
		return nil
	}

	consumedDelta := met.Consumed - m.lastConsumed
	missDelta := (met.Misses - m.lastMisses) + (met.Skips - m.lastSkips)
	m.lastConsumed, m.lastMisses, m.lastSkips = met.Consumed, met.Misses, met.Skips

	// Budget: windowed utilization over the check interval vs declared
	// cpuusage, with tolerance for jitter and accounting granularity.
	if info.CPUUsage > 0 {
		util := float64(consumedDelta) / float64(checkInterval)
		m.lastUtil, m.utilValid = util, true
		limit := info.CPUUsage * overrunFactor
		if util > limit {
			m.overWindows++
			if m.overWindows >= overrunChecks {
				vs = append(vs, Violation{
					At: now, Component: info.Name, Kind: BudgetOverrun,
					Measured: util, Limit: limit,
					Detail: fmt.Sprintf("utilization %.4f over %d windows (declared cpuusage %.4f)", util, m.overWindows, info.CPUUsage),
				})
			}
		} else {
			m.overWindows = 0
		}
	}

	// Deadlines: misses and skipped releases during the window.
	if missDelta >= missThreshold {
		vs = append(vs, Violation{
			At: now, Component: info.Name, Kind: DeadlineMiss,
			Measured: float64(missDelta), Limit: float64(missThreshold),
			Detail: fmt.Sprintf("%d deadline misses/skips in window", missDelta),
		})
	}

	// Port freshness: a periodic component's declared SHM outports must
	// advance their write generation; stalling past staleFactor periods
	// breaks the contract dependants resolved against.
	if period := task.Spec().Period; period > 0 {
		staleAfter := time.Duration(staleFactor * float64(period))
		for _, p := range info.OutPorts {
			if p.Interface != string(descriptor.SHM) {
				continue
			}
			seg, err := g.d.Kernel().IPC().SHM(p.Name)
			if err != nil {
				continue
			}
			ps := m.ports[p.Name]
			gen := seg.Generation()
			if ps == nil {
				m.ports[p.Name] = &portState{gen: gen, lastChange: now}
				continue
			}
			if gen != ps.gen {
				ps.gen = gen
				ps.lastChange = now
				continue
			}
			if age := now.Sub(ps.lastChange); age > staleAfter {
				vs = append(vs, Violation{
					At: now, Component: info.Name, Kind: PortStale,
					Measured: age.Seconds(), Limit: staleAfter.Seconds(),
					Detail: fmt.Sprintf("outport %q unchanged for %v (period %v)", p.Name, age, period),
					Port:   p.Name,
				})
				ps.lastChange = now // one violation per stall window
			}
		}
	}
	return vs
}

func (g *Guard) record(at sim.Time, action, component, detail string) {
	g.trace = append(g.trace, Record{At: at, Action: action, Component: component, Detail: detail})
}

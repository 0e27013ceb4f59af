package workload

import (
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/supervise"
)

// Degradation campaign: the §4.2 latency application extended with an
// auxiliary component, run under multi-mode contracts, the guard's
// step-down ladder, and the restart supervisor. The same scripted faults
// hit a binary (admit-or-deny) configuration and a graceful one
// (downgrade-before-deny); the result quantifies what the mode ladder
// buys — availability preserved under overload, capacity recovered by
// degrading instead of denying, and bounded time back to full contract.

// CalcModesXML is CalcXML plus a declared "eco" fallback: a quarter of
// the rate for 4/5 of the budget. The pinned exec time stays 30 µs —
// degrading changes the contract, not the work.
const CalcModesXML = `<component name="calc" desc="simulated computing job at 1000 Hz" type="periodic" cpuusage="0.05">
  <implementation bincode="rtai.demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <mode name="eco" frequence="250" cpuusage="0.04"/>
  <property name="drcom.exectime.us" type="Integer" value="30"/>
</component>`

// ZauxXML is an auxiliary analytics component whose full contract is
// deliberately infeasible next to calc and disp (0.97 + 0.06 > 1.0): a
// binary resolver must deny it, the mode-aware one admits it degraded.
const ZauxXML = `<component name="zaux" desc="auxiliary analytics sweep" type="periodic" cpuusage="0.97">
  <implementation bincode="rtai.demo.Aux"/>
  <periodictask frequence="100" runoncup="0" priority="3"/>
  <mode name="lite" frequence="50" cpuusage="0.10"/>
  <property name="drcom.exectime.us" type="Integer" value="100"/>
</component>`

// ZauxBinaryXML is the same component without the fallback mode.
const ZauxBinaryXML = `<component name="zaux" desc="auxiliary analytics sweep" type="periodic" cpuusage="0.97">
  <implementation bincode="rtai.demo.Aux"/>
  <periodictask frequence="100" runoncup="0" priority="3"/>
  <property name="drcom.exectime.us" type="Integer" value="100"/>
</component>`

// Degrade-campaign timeline (offsets from scenario start). The exec
// inflation reuses the standard campaign's window; the crash hits the
// auxiliary component late, once the overload story has played out.
const (
	// DegradeCrashAt is when zaux crashes.
	DegradeCrashAt = 900 * time.Millisecond
	// DegradeCrashClear is when the crash condition clears (the
	// supervised restart is the supervisor's decision, not the clear's).
	DegradeCrashClear = 10 * time.Millisecond
)

// DegradeCampaign scripts the two faults: calc's budget breach and
// zaux's crash.
func DegradeCampaign() fault.Campaign {
	return fault.Campaign{
		Name: "degrade-calc-overrun-zaux-crash",
		Faults: []fault.Fault{
			{
				Kind:   fault.ExecInflate,
				Target: "calc",
				At:     FaultStart,
				For:    FaultDuration,
				Factor: FaultFactor,
			},
			{
				Kind:   fault.Crash,
				Target: "zaux",
				At:     DegradeCrashAt,
				For:    DegradeCrashClear,
			},
		},
	}
}

// degradeSamplePeriod is the utilization sampling cadence.
const degradeSamplePeriod = 10 * time.Millisecond

// DegradeConfig parameterises one degradation-campaign run.
type DegradeConfig struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// RunFor is the total simulated duration (default 1.2 s).
	RunFor time.Duration
	// Binary strips the declared fallback modes: the ablation baseline
	// where admission is admit-or-deny and the guard can only revoke.
	Binary bool
	// NumCPUs sizes the simulated kernel (default 1).
	NumCPUs int
	// Replicas deploys background calc/disp pairs on CPUs 1..NumCPUs-1;
	// ignored when NumCPUs == 1.
	Replicas int
	// ObsLevel is the observability sampling level (zero value: Sampled).
	ObsLevel obs.Level
}

func (c *DegradeConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NumCPUs <= 0 {
		c.NumCPUs = 1
	}
	if c.NumCPUs == 1 {
		c.Replicas = 0
	}
	if c.RunFor <= 0 {
		c.RunFor = 1200 * time.Millisecond
	}
}

// DegradeResult captures one run of the degradation campaign.
type DegradeResult struct {
	Binary bool

	// Availability is the fraction of the run each component spent
	// ACTIVE (serving, possibly degraded), keyed by name.
	Availability map[string]float64
	// MeanUtil is the mean admitted budget (sum of the admitted modes'
	// cpuusage across ACTIVE components), sampled every 10 ms.
	MeanUtil    float64
	UtilSamples int
	// TimeToRepromo is calc's final re-promotion to the full contract
	// minus the fault clear; negative when calc never returned (or, in
	// binary mode, was never downgraded).
	TimeToRepromo time.Duration

	// Ladder and supervisor activity.
	Denies      int
	Revokes     int
	Downgrades  uint64
	Upgrades    uint64
	Restarts    uint64
	Escalations uint64

	SpanDigest string
	SpanCount  uint64
	Spans      []obs.Span
	Obs        obs.Snapshot

	Events         []core.Event
	Final          []core.Info
	GuardTrace     []contract.Record
	SuperviseTrace []supervise.Record
}

// RunDegradeCampaign executes the degradation campaign. Same seed + same
// config ⇒ byte-identical span digest.
func RunDegradeCampaign(cfg DegradeConfig) (DegradeResult, error) {
	cfg.applyDefaults()

	calcSrc, zauxSrc := CalcModesXML, ZauxXML
	if cfg.Binary {
		calcSrc, zauxSrc = CalcXML, ZauxBinaryXML
	}
	r, err := newRig(rigSpec{
		seed:     cfg.Seed,
		numCPUs:  cfg.NumCPUs,
		obsLevel: cfg.ObsLevel,
		bodies: map[string]core.BodyFactory{
			"rtai.demo.Calculation": calcBody,
			"rtai.demo.Display":     displayBody(nil),
			"rtai.demo.Aux":         noopBody,
		},
		descs:    []string{calcSrc, DisplayXML, zauxSrc},
		replicas: cfg.Replicas,
		campaign: DegradeCampaign(),
		// HealthyReset is "effectively never" here so the doubling
		// downgrade backoff stays visible across the campaign's
		// promote/violate cycles.
		guard:     &contract.Options{HealthyReset: 1 << 20},
		supervise: &supervise.Options{},
	})
	if err != nil {
		return DegradeResult{}, err
	}
	defer r.close()
	d, k := r.d, r.k

	// Utilization sampler: the admitted budget of the ACTIVE set, every
	// degradeSamplePeriod on the simulated clock.
	var utilSum float64
	var utilN int
	var sample func(sim.Time)
	clock := k.Clock()
	sample = func(sim.Time) {
		var u float64
		for _, info := range d.Components() {
			if info.State == core.Active {
				u += info.CPUUsage
			}
		}
		utilSum += u
		utilN++
		_, _ = clock.After(degradeSamplePeriod, "degrade:util-sample", sample)
	}
	if _, err := clock.After(degradeSamplePeriod, "degrade:util-sample", sample); err != nil {
		return DegradeResult{}, err
	}

	if err := k.Run(cfg.RunFor); err != nil {
		return DegradeResult{}, err
	}

	res := DegradeResult{
		Binary:         cfg.Binary,
		Events:         d.Events(),
		Final:          d.Components(),
		GuardTrace:     r.guard.Trace(),
		SuperviseTrace: r.sup.Trace(),
		SpanDigest:     d.Obs().Digest(),
		SpanCount:      d.Obs().Emitted(),
		Spans:          d.Obs().Spans(),
		Obs:            d.Obs().Snapshot(),
		UtilSamples:    utilN,
	}
	if utilN > 0 {
		res.MeanUtil = utilSum / float64(utilN)
	}
	res.Downgrades = res.Obs.Degrade.Downgrades
	res.Upgrades = res.Obs.Degrade.Upgrades
	res.Restarts = res.Obs.Supervise.Restarts
	res.Escalations = res.Obs.Supervise.Escalations
	for _, r := range res.GuardTrace {
		if r.Action == "revoke" {
			res.Revokes++
		}
	}
	res.Denies = int(res.Obs.Lifecycle.Denials)
	res.Availability = availability(res.Events, k.Now())
	res.TimeToRepromo = -1
	faultClear := sim.Time(FaultStart + FaultDuration)
	var lastUpgrade sim.Time
	for _, sp := range d.Obs().Spans() {
		if sp.Kind == obs.KindUpgrade && sp.Component == "calc" {
			lastUpgrade = sp.At
		}
	}
	if lastUpgrade > 0 {
		res.TimeToRepromo = lastUpgrade.Sub(faultClear)
	}
	return res, nil
}

// availability integrates per-component ACTIVE time over the event log.
func availability(events []core.Event, end sim.Time) map[string]float64 {
	type span struct {
		active bool
		since  sim.Time
		total  time.Duration
	}
	acc := map[string]*span{}
	get := func(name string) *span {
		s := acc[name]
		if s == nil {
			s = &span{}
			acc[name] = s
		}
		return s
	}
	for _, ev := range events {
		s := get(ev.Component)
		switch {
		case ev.To == core.Active && !s.active:
			s.active = true
			s.since = ev.At
		case ev.To != core.Active && s.active:
			s.total += ev.At.Sub(s.since)
			s.active = false
		}
	}
	out := make(map[string]float64, len(acc))
	for name, s := range acc {
		if s.active {
			s.total += end.Sub(s.since)
		}
		if end > 0 {
			out[name] = float64(s.total) / float64(end.Sub(0))
		}
	}
	return out
}

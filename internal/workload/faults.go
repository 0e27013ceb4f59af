package workload

import (
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Fault-campaign scenario: the §4.2 latency application under a scripted
// contract breach. A deterministic fault inflates calc's execution time
// far past its declared cpuusage budget; with the contract guard enabled
// the violation is detected, calc's budget revoked (disp cascades to
// UNSATISFIED), and — after the fault clears and the quarantine is
// served — both components return to ACTIVE in dependency order.

// Standard campaign timeline (offsets from scenario start).
const (
	// FaultStart is when the standard campaign's exec-inflation opens.
	FaultStart = 300 * time.Millisecond
	// FaultDuration is how long it stays open.
	FaultDuration = 400 * time.Millisecond
	// FaultFactor is the execution-time multiplier: calc's nominal 30 µs
	// per 1 ms period (3% CPU) becomes 120 µs (12%), far past the 0.05
	// declared budget and the guard's 1.5× tolerance.
	FaultFactor = 4.0
)

// StandardCampaign is the reference fault script: one execution-time
// inflation against calc.
func StandardCampaign() fault.Campaign {
	return fault.Campaign{
		Name: "calc-overrun",
		Faults: []fault.Fault{{
			Kind:   fault.ExecInflate,
			Target: "calc",
			At:     FaultStart,
			For:    FaultDuration,
			Factor: FaultFactor,
		}},
	}
}

// FaultCampaignConfig parameterises one fault-campaign run.
type FaultCampaignConfig struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// RunFor is the total simulated duration (default 1.2 s, enough for
	// the standard campaign's quarantine/backoff cycles to settle).
	RunFor time.Duration
	// Guarded enables the contract guard (enforcing). False runs the
	// same campaign unprotected — the ablation baseline.
	Guarded bool
	// Campaign overrides the standard fault script.
	Campaign *fault.Campaign
	// NumCPUs sizes the simulated kernel (default 1 — the paper's
	// single-CPU scenario, byte-identical to earlier revisions).
	NumCPUs int
	// Replicas deploys that many background calc/disp pairs spread over
	// CPUs 1..NumCPUs-1, giving multi-CPU campaigns real per-CPU
	// scheduling work. Ignored when NumCPUs == 1.
	Replicas int
	// ObsLevel is the observability sampling level (zero value: Sampled).
	ObsLevel obs.Level
}

func (c *FaultCampaignConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RunFor <= 0 {
		c.RunFor = 1200 * time.Millisecond
	}
	if c.NumCPUs <= 0 {
		c.NumCPUs = 1
	}
	if c.NumCPUs == 1 {
		c.Replicas = 0
	}
}

// FaultCampaignResult captures everything observable about one run.
type FaultCampaignResult struct {
	Campaign string

	// Guard-side observations (empty when unguarded).
	Violations  []contract.Violation
	GuardTrace  []contract.Record
	TraceDigest string

	InjectTrace []fault.Record
	Events      []core.Event
	// Final is the component snapshot at the end of the run.
	Final []core.Info

	// SpanDigest is the observability plane's full span-trace digest
	// (IDs and cause edges included) at the end of the run, before
	// teardown; same seed + same campaign ⇒ byte-identical. SpanCount is
	// the number of spans behind it, and Obs the metric snapshot.
	SpanDigest string
	SpanCount  uint64
	Obs        obs.Snapshot

	// Containment: disp's dispatch latencies across the whole run,
	// collected in the functional routine so they survive task
	// recreation. DispMaxAbs is the worst magnitude in nanoseconds.
	DispSamples []int64
	DispMaxAbs  int64

	// Reaction timeline.
	FirstViolationAt sim.Time
	RevokeCount      int
	RestoreCount     int
	// RecoveredAt is when disp last returned to ACTIVE (the dependant's
	// final reactivation); zero if it never did.
	RecoveredAt sim.Time
	// DetectionLatency is first violation minus fault start; MTTR is the
	// final recovery minus fault clear. Negative values mean "never".
	DetectionLatency time.Duration
	MTTR             time.Duration
}

// RunFaultCampaign executes the §4.2 application under a fault campaign,
// optionally protected by the contract guard, and reports the violation,
// containment, and recovery record. Same seed + same campaign ⇒
// byte-identical guard trace (see TraceDigest).
func RunFaultCampaign(cfg FaultCampaignConfig) (FaultCampaignResult, error) {
	cfg.applyDefaults()
	campaign := StandardCampaign()
	if cfg.Campaign != nil {
		campaign = *cfg.Campaign
	}

	var dispLat []int64
	spec := rigSpec{
		seed:     cfg.Seed,
		numCPUs:  cfg.NumCPUs,
		obsLevel: cfg.ObsLevel,
		bodies: map[string]core.BodyFactory{
			"rtai.demo.Calculation": calcBody,
			"rtai.demo.Display":     displayBody(func(lat int64) { dispLat = append(dispLat, lat) }),
		},
		descs:    []string{CalcXML, DisplayXML},
		replicas: cfg.Replicas,
		campaign: campaign,
	}
	if cfg.Guarded {
		spec.guard = &contract.Options{}
	}
	r, err := newRig(spec)
	if err != nil {
		return FaultCampaignResult{}, err
	}
	defer r.close()
	d, inj, guard := r.d, r.inj, r.guard

	if err := r.k.Run(cfg.RunFor); err != nil {
		return FaultCampaignResult{}, err
	}

	res := FaultCampaignResult{
		Campaign:    campaign.Name,
		InjectTrace: inj.Trace(),
		Events:      d.Events(),
		Final:       d.Components(),
		DispSamples: dispLat,
		SpanDigest:  d.Obs().Digest(),
		SpanCount:   d.Obs().Emitted(),
		Obs:         d.Obs().Snapshot(),
	}
	for _, v := range dispLat {
		if v < 0 {
			v = -v
		}
		if v > res.DispMaxAbs {
			res.DispMaxAbs = v
		}
	}
	res.DetectionLatency = -1
	res.MTTR = -1
	if guard != nil {
		res.Violations = guard.Violations()
		res.GuardTrace = guard.Trace()
		res.TraceDigest = guard.TraceDigest()
		for _, r := range res.GuardTrace {
			switch r.Action {
			case "revoke":
				res.RevokeCount++
			case "restore":
				res.RestoreCount++
			}
		}
		if len(res.Violations) > 0 {
			res.FirstViolationAt = res.Violations[0].At
			for _, r := range res.InjectTrace {
				if r.Action == "inject" {
					res.DetectionLatency = res.FirstViolationAt.Sub(r.At)
					break
				}
			}
		}
	}
	faultClear := sim.Time(0)
	for _, f := range campaign.Faults {
		if f.For > 0 {
			if end := sim.Time(f.At + f.For); end > faultClear {
				faultClear = end
			}
		}
	}
	for _, ev := range res.Events {
		if ev.Component == "disp" && ev.To == core.Active {
			res.RecoveredAt = ev.At
		}
	}
	if res.RecoveredAt > faultClear && faultClear > 0 {
		res.MTTR = res.RecoveredAt.Sub(faultClear)
	}
	return res, nil
}

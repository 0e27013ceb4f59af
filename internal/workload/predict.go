package workload

import (
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Predictive-admission ablation: the same execution-time drift hits the
// same stochastic-budget component twice — once under the reactive guard
// (measure, confirm over two windows, then step down) and once with the
// forecasting estimator on top (project the trend, step down before the
// first hard miss). The drift is deliberately steep near the enforcement
// limit: by the time a reactive confirmation completes, the kernel has
// already recorded deadline misses, while the projection sees the
// crossing PredictLead windows out.

// PredictCalcXML is the drifting component: a 1 kHz job at 55% of its
// period with a distribution-valued budget (deadline met with P ≥ 0.99)
// and a generously-contracted eco fallback the guard can park it in
// while the drift plays out.
const PredictCalcXML = `<component name="calc" desc="drifting computing job" type="periodic" cpuusage="0.55">
  <implementation bincode="rtai.demo.PredictCalc"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.55,0.03)" p="0.99"/>
  <mode name="eco" frequence="250" cpuusage="0.45"/>
  <property name="drcom.exectime.us" type="Integer" value="550"/>
</component>`

// Predict-campaign timeline (offsets from scenario start).
const (
	// PredictDriftStart is when the execution-time ramp opens; the
	// estimator has had 50 windows of stationary baseline by then.
	PredictDriftStart = 500 * time.Millisecond
	// PredictDriftWindow is the ramp duration.
	PredictDriftWindow = 150 * time.Millisecond
	// PredictDriftFactor is the ramp's final execution-time multiplier.
	PredictDriftFactor = 3.0
)

// PredictCampaign scripts the slow-burn drift against calc.
func PredictCampaign() fault.Campaign {
	return fault.Campaign{
		Name: "calc-exec-drift",
		Faults: []fault.Fault{{
			Kind:   fault.ExecDrift,
			Target: "calc",
			At:     PredictDriftStart,
			For:    PredictDriftWindow,
			Factor: PredictDriftFactor,
		}},
	}
}

// PredictConfig parameterises one predict-campaign run.
type PredictConfig struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// RunFor is the total simulated duration (default 1.2 s).
	RunFor time.Duration
	// Predictive enables the forecasting estimator on top of the
	// reactive guard; false is the reactive-only ablation baseline.
	Predictive bool
	// Guard overrides the guard options. Predict is forced to match
	// Predictive; PredictLead defaults to 6 here (the drift is steep).
	Guard contract.Options
	// NumCPUs sizes the simulated kernel (default 4).
	NumCPUs int
	// Replicas deploys background calc/disp pairs on CPUs 1..NumCPUs-1;
	// ignored when NumCPUs == 1 (default 3, one per remaining CPU).
	Replicas int
	// ObsLevel is the observability sampling level (zero value: Sampled).
	ObsLevel obs.Level
}

func (c *PredictConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RunFor <= 0 {
		c.RunFor = 1200 * time.Millisecond
	}
	if c.NumCPUs <= 0 {
		c.NumCPUs = 4
	}
	if c.NumCPUs == 1 {
		c.Replicas = 0
	} else if c.Replicas == 0 {
		c.Replicas = 3
	}
	c.Guard.Predict = c.Predictive
	if c.Guard.PredictLead == 0 {
		c.Guard.PredictLead = 6
	}
	if c.Guard.Quarantine == 0 {
		// The default 8-check hold expires mid-drift: calc gets promoted
		// back to full rate while the ramp is still open and racks up a
		// burst of misses in BOTH ablation arms, drowning the signal. 16
		// checks (160 ms) holds the downgrade until the drift has cleared.
		c.Guard.Quarantine = 16
	}
}

// PredictResult captures one run of the predict campaign.
type PredictResult struct {
	Predictive bool

	// HardMisses is calc's deadline misses + skipped releases summed
	// across every task incarnation; FirstMissAt is when the first one
	// was observed (zero = never).
	HardMisses  uint64
	FirstMissAt sim.Time
	// ForecastAt is the first forecast record (zero = none fired).
	ForecastAt sim.Time
	// Availability is calc's fraction of the run spent ACTIVE.
	Availability float64

	Downgrades        int
	PredictDowngrades int
	Revokes           int

	TraceDigest string
	// SpanDigest is the span-trace digest. Same seed + same config ⇒
	// byte-identical.
	SpanDigest string
	SpanCount  uint64

	Forecasts  []contract.Forecast
	GuardTrace []contract.Record
	Final      []core.Info
}

// loadBody stamps the current time on a replica's first outport.
func loadBody(c *descriptor.Component) rtos.Body {
	if len(c.OutPorts) == 0 {
		return func(*rtos.JobContext) {}
	}
	topic := c.OutPorts[0].Name
	return func(j *rtos.JobContext) {
		if shm, err := j.Kernel.IPC().SHM(topic); err == nil {
			_ = shm.Set(0, int64(j.Now))
		}
	}
}

// RunPredictCampaign executes the drift campaign under the configured
// guard and reports misses, forecasts, and step-down activity.
func RunPredictCampaign(cfg PredictConfig) (PredictResult, error) {
	cfg.applyDefaults()

	r, err := newRig(rigSpec{
		seed:     cfg.Seed,
		numCPUs:  cfg.NumCPUs,
		obsLevel: cfg.ObsLevel,
		bodies: map[string]core.BodyFactory{
			"rtai.demo.PredictCalc": noopBody,
			// The replica load bodies must actually write their outports:
			// with the default no-op body the guard flags every replica
			// port-stale and the revoke/restore churn buries the ablation
			// signal.
			"rtai.demo.Load": loadBody,
		},
		descs:    []string{PredictCalcXML},
		replicas: cfg.Replicas,
		campaign: PredictCampaign(),
		guard:    &cfg.Guard,
	})
	if err != nil {
		return PredictResult{}, err
	}
	defer r.close()
	d, k, guard := r.d, r.k, r.guard

	// Miss meter: kernel counters die with each task incarnation (a
	// downgrade swaps the task), so poll deltas every millisecond with
	// reset detection, like the guard's own baselines.
	var missTotal, missLast uint64
	var firstMiss sim.Time
	clock := k.Clock()
	var meter func(sim.Time)
	meter = func(now sim.Time) {
		if task, ok := k.Task("calc"); ok {
			m := task.Metrics()
			cur := m.Misses + m.Skips
			if cur < missLast {
				missLast = 0 // fresh incarnation
			}
			if cur > missLast {
				missTotal += cur - missLast
				if firstMiss == 0 {
					firstMiss = now
				}
				missLast = cur
			}
		} else {
			missLast = 0
		}
		_, _ = clock.After(time.Millisecond, "predict:miss-meter", meter)
	}
	if _, err := clock.After(time.Millisecond, "predict:miss-meter", meter); err != nil {
		return PredictResult{}, err
	}

	if err := k.Run(cfg.RunFor); err != nil {
		return PredictResult{}, err
	}

	res := PredictResult{
		Predictive:  cfg.Predictive,
		HardMisses:  missTotal,
		FirstMissAt: firstMiss,
		TraceDigest: guard.TraceDigest(),
		SpanDigest:  d.Obs().Digest(),
		SpanCount:   d.Obs().Emitted(),
		Forecasts:   guard.Forecasts(),
		GuardTrace:  guard.Trace(),
		Final:       d.Components(),
	}
	for _, r := range res.GuardTrace {
		switch r.Action {
		case "forecast":
			if res.ForecastAt == 0 {
				res.ForecastAt = r.At
			}
		case "downgrade":
			res.Downgrades++
		case "predict-downgrade":
			res.PredictDowngrades++
		case "revoke":
			res.Revokes++
		}
	}
	res.Availability = availability(d.Events(), k.Now())["calc"]
	return res, nil
}

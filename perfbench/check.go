package main

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/policy"
)

// admissionBound is the DRCR's internal admission ceiling per CPU
// (policy.Utilization at its default bound).
const admissionBound = 1.0

// checker verifies, at checkpoints of the measured phase, the invariants
// the paper promises for one DRCR, and makes the observability reads a
// management console would: a metrics snapshot, the trace digest, and a
// Monte-Carlo admission verdict per CPU.
// descs maps every component the benchmark deployed to its descriptor.
type checker struct {
	r      *round
	d      *core.DRCR
	descs  map[string]*descriptor.Component
	events int // lifecycle events already checked
}

func (c *checker) check(where string) {
	r, d := c.r, c.d
	for _, info := range d.Components() {
		if info.State != core.Active {
			continue
		}
		desc := c.descs[info.Name]
		if desc == nil {
			r.fail("%s: ACTIVE component %s was never deployed", where, info.Name)
			continue
		}
		for _, in := range desc.InPorts {
			if desc.RequiresInport(info.Mode, in.Name) && info.Bindings[in.Name] == "" {
				r.fail("%s: ACTIVE %s has required inport %s unbound in mode %s", where, info.Name, in.Name, info.ModeName)
			}
		}
	}

	view := d.GlobalView()
	for cpu := 0; cpu < view.NumCPUs; cpu++ {
		var sum float64
		for _, ct := range view.OnCPU(cpu) {
			sum += ct.CPUUsage
		}
		load := view.Load(cpu)
		if load > admissionBound+1e-9 {
			r.fail("%s: cpu%d declared load %.6f exceeds the admission bound %.2f", where, cpu, load, admissionBound)
		}
		if math.Abs(load-sum) > 1e-6 {
			r.fail("%s: cpu%d load accumulator %.9f differs from its admitted contracts' sum %.9f", where, cpu, load, sum)
		}
	}

	sent, delivered, dropped, queued := d.Kernel().TriggerStats()
	if sent != delivered+dropped+queued {
		r.fail("%s: trigger ledger sent %d != delivered %d + dropped %d + queued %d", where, sent, delivered, dropped, queued)
	}

	evs := d.Events()
	if c.events > len(evs) {
		c.events = 0
	}
	for _, ev := range evs[c.events:] {
		// From 0 is a fresh deploy; From == To is a mode change.
		if ev.From != 0 && ev.From != ev.To && !core.CanTransition(ev.From, ev.To) {
			r.fail("%s: illegal Figure 1 transition %v", where, ev)
		}
	}
	c.events = len(evs)

	_, _ = r.timed("obs", "snapshot", func() error { _ = d.Observer().Snapshot(); return nil })
	_, _ = r.timed("obs", "digest", func() error { _ = d.Obs().Digest(); return nil })
	replayMC(r, view)
}

// mcProbe is the stochastic contract the Monte-Carlo replay asks about:
// a 1 kHz job whose CPU share is normal(0.05, 0.005), to be met with
// probability 0.95.
var mcProbe = func() policy.Contract {
	dist, err := policy.ParseDist("normal(0.05,0.005)")
	if err != nil {
		panic(err) // a constant that fails to parse is a bug
	}
	return policy.Contract{Name: "mcprobe", Priority: 1, CPUUsage: 0.05, Period: time.Millisecond, Budget: dist, MetP: 0.95}
}()

// mcProbeCPUs caps the CPUs one checkpoint asks about.
const mcProbeCPUs = 8

// replayMC asks policy.MCVerdict, for each CPU of the admission view,
// whether the probe contract could join the contracts admitted there —
// the stochastic admission question, on the workload's live view. The
// verdicts met are an exact count; the timing is the policy layer's.
func replayMC(r *round, view policy.View) {
	for cpu := 0; cpu < view.NumCPUs && cpu < mcProbeCPUs; cpu++ {
		cand := mcProbe
		cand.CPU = cpu
		on, load := view.OnCPU(cpu), view.Load(cpu)
		var verdict policy.StochasticVerdict
		_, _ = r.timed("policy", "mc_verdict", func() error {
			verdict, _ = policy.MCVerdict(admissionBound, load, on, cand)
			return nil
		})
		r.count("policy.mc_verdicts", 1)
		if verdict.Admitted() {
			r.count("policy.mc_verdicts_met", 1)
		}
	}
}

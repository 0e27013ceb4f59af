package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/supervise"
)

// steady-app: the paper's §4.2 latency application (calc at 1 kHz feeding
// disp at 4 Hz over SHM on CPU 0) beside replica producer→consumer chains
// on 15 more simulated CPUs, run on a 2-shard kernel under the predictive
// contract guard, a restart supervisor and a seeded fault script, for a
// long stretch of simulated time with no management calls. Kernel
// dispatch and the shard-window loop do almost all the work.
const (
	steadyCPUs    = 16
	steadyShards  = 2
	steadyHorizon = 2 * time.Second
	steadySlice   = 10 * time.Millisecond
	steadyCheck   = 500 * time.Millisecond
	steadySample  = 10 * time.Millisecond
)

// The §4.2 pair as the paper deploys it.
var steadyLatency = []comp{
	{name: "calc", bincode: "pb.Calc", cpu: 0, prio: 1, hz: 1000, usage: 0.05, execUS: 30, out: []port{{name: "lat"}}},
	{name: "disp", bincode: "pb.Cons", cpu: 0, prio: 2, hz: 4, usage: 0.01, execUS: 10, in: []port{{name: "lat"}}},
}

type steadyInputs struct {
	latency, chains []unit
	faults          fault.Campaign
}

// genSteady draws the replica chains and the fault script. Every seed
// builds the same work — three chains per replica CPU, producer k at
// 1000, 500 or 250 Hz — and differs in the chains' priorities and in
// which components the faults hit, in which order.
func genSteady(seed uint64) steadyInputs {
	rng := newRNG(seed, "steady-app")
	var chains []comp
	var faultable []string
	for cpu := 1; cpu < steadyCPUs; cpu++ {
		prios := rng.Perm(3)
		for k, hz := range [3]int{1000, 500, 250} {
			topic := fmt.Sprintf("s%02d%d", cpu, k)
			exec := 20 + 20*k
			p := comp{name: fmt.Sprintf("p%02d%d", cpu, k), bincode: "pb.Prod", cpu: cpu, prio: 1 + prios[k],
				hz: hz, execUS: exec, usage: budget(exec, hz), out: []port{{name: topic}}}
			if k == 0 && cpu%2 == 1 {
				p.modes = []mode{{name: "eco", hz: hz / 4, usage: budget(exec, hz/4)}}
				faultable = append(faultable, p.name)
			}
			chz := [...]int{100, 50, 100}[k]
			cexec := 10 + 10*k
			c := comp{name: fmt.Sprintf("c%02d%d", cpu, k), bincode: "pb.Cons", cpu: cpu, prio: 10 + prios[k],
				hz: chz, execUS: cexec, usage: budget(cexec, chz), in: []port{{name: topic}}}
			chains = append(chains, p, c)
		}
	}
	// The 1 kHz producers of CPUs 1 and 2 declare distribution-valued
	// budgets; p010 also carries a mode ladder and is a fault target.
	for i := range chains {
		if chains[i].name == "p010" || chains[i].name == "p020" {
			chains[i].dist, chains[i].p = normalBudget(chains[i].usage), 0.95
		}
	}

	// A fixed mix of faults — four execution-time inflations, two stalls,
	// one crash, 250 ms apart — on seeded targets in seeded order.
	kinds := []fault.Kind{fault.ExecInflate, fault.ExecInflate, fault.ExecInflate, fault.ExecInflate,
		fault.Stall, fault.Stall, fault.Crash}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	camp := fault.Campaign{Name: "steady-app"}
	for i, kind := range kinds {
		f := fault.Fault{
			Kind:   kind,
			Target: faultable[rng.IntN(len(faultable))],
			At:     time.Duration(200+250*i) * time.Millisecond,
			For:    80 * time.Millisecond,
		}
		if kind == fault.ExecInflate {
			f.Factor = 4
		}
		camp.Faults = append(camp.Faults, f)
	}
	return steadyInputs{latency: render(steadyLatency), chains: render(chains), faults: camp}
}

func runSteady(seed uint64, r *round) error {
	in := genSteady(seed)
	for _, u := range append(append([]unit(nil), in.latency...), in.chains...) {
		r.stream.add("%s", u.src)
	}
	for _, f := range in.faults.Faults {
		r.stream.add("fault %v %s %v %v %g", f.Kind, f.Target, f.At, f.For, f.Factor)
	}

	setupStart := time.Now()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: steadyCPUs, Shards: steadyShards, Seed: seed, Mode: rtos.LightLoad})
	d, err := core.New(fw, k, core.Options{Shards: steadyShards})
	if err != nil {
		return err
	}
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		stops = nil
	}
	defer func() {
		stopAll()
		d.Close()
		_ = fw.Shutdown()
	}()
	if err := registerBodies(d); err != nil {
		return err
	}
	descs := map[string]*descriptor.Component{}
	latB, err := deployBundle(r, false, d, fw, "app.latency", in.latency, descs)
	if err != nil {
		return fmt.Errorf("deploy app.latency: %w", err)
	}
	repB, err := deployBundle(r, false, d, fw, "app.replicas", in.chains, descs)
	if err != nil {
		return fmt.Errorf("deploy app.replicas: %w", err)
	}
	inj, err := fault.New(d, fw)
	if err != nil {
		return err
	}
	stops = append(stops, inj.Close)
	if err := inj.Install(in.faults); err != nil {
		return err
	}
	guard, err := contract.New(d, contract.Options{Predict: true})
	if err != nil {
		return err
	}
	if err := guard.Start(); err != nil {
		return err
	}
	stops = append(stops, guard.Stop)
	sup, err := supervise.New(d, supervise.Options{})
	if err != nil {
		return err
	}
	sup.Start()
	stops = append(stops, sup.Stop)
	// Availability: component × sample-instant pairs in ACTIVE.
	var samples, active int
	var sample func(sim.Time)
	sample = func(sim.Time) {
		for _, info := range d.Components() {
			samples++
			if info.State == core.Active {
				active++
			}
		}
		_, _ = k.Clock().After(steadySample, "perfbench:availability", sample)
	}
	if _, err := k.Clock().After(steadySample, "perfbench:availability", sample); err != nil {
		return err
	}
	r.setup = time.Since(setupStart)

	tasks := taskSet{}
	chk := &checker{r: r, d: d, descs: descs}
	events0 := k.EventsFired()
	r.beginPhase(d.Observer().Snapshot())
	for at := steadySlice; at <= steadyHorizon; at += steadySlice {
		if err := r.advance("rtos", "slice", steadySlice, func() error { return k.Run(steadySlice) }); err != nil {
			return err
		}
		tasks.poll(k)
		if at%steadyCheck == 0 {
			chk.check(fmt.Sprintf("t=%v", at))
		}
	}
	r.endPhase(k.EventsFired()-events0, func() []obs.Snapshot { return []obs.Snapshot{d.Observer().Snapshot()} })

	r.count("rtos.events", float64(r.events))
	r.addTaskCounts(tasks)
	r.addTriggerCounts(k)
	r.sims["sim_availability"] = ratio(float64(active), float64(samples))
	if calc, ok := k.Task("calc"); !ok {
		r.fail("calc has no live task at the end of the run")
	} else {
		row := calc.Stats().Latency
		paper := bench.PaperTable1[0]
		r.sims["sim_latency_avg_ns"] = row.Average
		r.sims["sim_latency_avedev_ns"] = row.AveDev
		r.notes = append(r.notes, fmt.Sprintf(
			"accuracy: calc dispatch latency over %d samples: AVG %.1f ns vs %s %.1f ns (error %+.1f%%), AVEDEV %.1f ns vs %.1f ns (error %+.1f%%)",
			row.N, row.Average, paper.Label, paper.Average, 100*(row.Average-paper.Average)/paper.Average,
			row.AveDev, paper.AveDev, 100*(row.AveDev-paper.AveDev)/paper.AveDev))
	}
	r.state = stateDigest(d, guard.TraceDigest())

	// Teardown through the bundle lifecycle, as an operator would.
	stopAll()
	for _, b := range []*osgi.Bundle{repB, latB} {
		if _, err := r.timed("core", "bundle_stop", b.Stop); err != nil {
			return err
		}
		if _, err := r.timed("osgi", "uninstall", b.Uninstall); err != nil {
			return err
		}
	}
	return nil
}

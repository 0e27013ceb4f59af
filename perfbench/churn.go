package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// bundle-churn: a waiter-free resident platform bundle stays in place
// while one closed-loop client cycles 16 distinct app bundles of 64
// components (versioned, structurally typed ports; half the bundles also
// consume platform topics): deploy, run 20 ms simulated, stop, uninstall.
// The first pass meets a cold plan cache, the second a warm one. This is
// the core layer as bulk apply and teardown: plan compile, the plan cache
// and its provider-fingerprint check, the plan fast path, OSGi
// install/start/stop and task create/delete. No component declares a
// distribution-valued budget: an admitted view holding one routes every
// bundle to the event path, and this workload keeps the fast path.
const (
	churnCPUs      = 4
	churnApps      = 16
	churnAppSize   = 64
	churnProducers = 16
	churnPlatform  = 16
	churnPasses    = 2
	churnRun       = 20 * time.Millisecond
	churnCheck     = 4 // cycles between checkpoints
)

const (
	platformType = "struct{seq:int32,val:int32}"
	appType      = "struct{seq:int32}"
)

type churnInputs struct {
	platform []unit
	apps     [][]unit
	order    []int
}

func genChurn(seed uint64) churnInputs {
	rng := newRNG(seed, "bundle-churn")
	var in churnInputs
	var pf []comp
	for i := 0; i < churnPlatform; i++ {
		pf = append(pf, comp{name: fmt.Sprintf("pf%02d", i), bincode: "pb.Prod", cpu: i % churnCPUs, prio: 2,
			hz: 200, execUS: 10, usage: budget(10, 200),
			out: []port{{name: fmt.Sprintf("q%02d", i), version: "1.2.0", datatype: platformType}}})
	}
	in.platform = render(pf)
	// Every app bundle has the same shape — 16 producers, 48 consumers,
	// the same rates and execution times — so the seed changes the wiring,
	// the CPU placement and the cycle order, not the amount of work.
	for b := 0; b < churnApps; b++ {
		var cs []comp
		for j := 0; j < churnProducers; j++ {
			hz, exec := 100+50*(j%3), 5+j%16
			cs = append(cs, comp{name: fmt.Sprintf("b%02dp%02d", b, j), bincode: "pb.Prod", cpu: rng.IntN(churnCPUs),
				prio: 3, hz: hz, execUS: exec, usage: budget(exec, hz),
				out: []port{{name: fmt.Sprintf("o%02d%02d", b, j), version: "2.1.0", datatype: appType}}})
		}
		for j := 0; j < churnAppSize-churnProducers; j++ {
			hz, exec := 50+25*(j%3), 5+j%16
			c := comp{name: fmt.Sprintf("b%02dc%02d", b, j), bincode: "pb.Cons", cpu: rng.IntN(churnCPUs),
				prio: 4, hz: hz, execUS: exec, usage: budget(exec, hz),
				in: []port{{name: fmt.Sprintf("o%02d%02d", b, rng.IntN(churnProducers)), version: "[2.0.0,3.0.0)", datatype: appType}}}
			if b%2 == 1 && j < churnPlatform {
				c.in = append(c.in, port{name: fmt.Sprintf("q%02d", j), version: "[1.0.0,2.0.0)", datatype: platformType})
			}
			if j%8 == 1 {
				c.modes = []mode{{name: "eco", hz: hz / 2, usage: budget(exec, hz/2)}}
			}
			cs = append(cs, c)
		}
		in.apps = append(in.apps, render(cs))
	}
	in.order = rng.Perm(churnApps)
	return in
}

func runChurn(seed uint64, r *round) error {
	in := genChurn(seed)
	for _, u := range in.platform {
		r.stream.add("%s", u.src)
	}
	for _, app := range in.apps {
		for _, u := range app {
			r.stream.add("%s", u.src)
		}
	}
	r.stream.add("order %v", in.order)

	setupStart := time.Now()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: churnCPUs, Seed: seed})
	d, err := core.New(fw, k, core.Options{})
	if err != nil {
		return err
	}
	defer func() {
		d.Close()
		_ = fw.Shutdown()
	}()
	if err := registerBodies(d); err != nil {
		return err
	}
	descs := map[string]*descriptor.Component{}
	if _, err := deployBundle(r, false, d, fw, "platform", in.platform, descs); err != nil {
		return fmt.Errorf("deploy platform: %w", err)
	}
	r.setup = time.Since(setupStart)

	tasks := taskSet{}
	chk := &checker{r: r, d: d, descs: descs}
	events0 := k.EventsFired()
	r.beginPhase(d.Observer().Snapshot())
	cycle := 0
	for pass := 0; pass < churnPasses; pass++ {
		for _, a := range in.order {
			sym := fmt.Sprintf("app.b%02d", a)
			b, err := deployBundle(r, true, d, fw, sym, in.apps[a], descs)
			if err != nil {
				return fmt.Errorf("deploy %s: %w", sym, err)
			}
			for _, u := range in.apps[a] {
				if info, ok := d.Component(u.name); !ok || info.State != core.Active {
					r.fail("%s: %s is %v after the deploy, want ACTIVE", sym, u.name, info.State)
				}
			}
			if err := r.advance("rtos", "slice", churnRun, func() error { return k.Run(churnRun) }); err != nil {
				return err
			}
			tasks.poll(k)
			if cycle++; cycle%churnCheck == 0 {
				chk.check(sym)
			}
			if err := r.op("core", "bundle_stop", b.Stop); err != nil {
				return fmt.Errorf("stop %s: %w", sym, err)
			}
			if err := r.op("osgi", "uninstall", b.Uninstall); err != nil {
				return fmt.Errorf("uninstall %s: %w", sym, err)
			}
		}
	}
	r.endPhase(k.EventsFired()-events0, func() []obs.Snapshot { return []obs.Snapshot{d.Observer().Snapshot()} })
	r.count("rtos.events", float64(r.events))
	r.addTaskCounts(tasks)
	r.addTriggerCounts(k)
	r.state = stateDigest(d)
	return nil
}

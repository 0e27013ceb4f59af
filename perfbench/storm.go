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

// reconfig-storm: a population of about 2,000 components —
// producer→relay→fan-out chains plus a heavy tail of admission-denied
// waiters, about 10% with mode ladders and 5% with distribution-valued
// budgets — takes a seeded closed-loop stream of single-component
// management operations, one client, each legal for the target's current
// state. Simulated time does not advance: the resolver, constant and
// Monte-Carlo admission and span emission do all the work.
const (
	stormCPUs        = 8
	stormGroups      = 360
	stormFanOut      = 3
	stormHeavy       = 64
	stormOpsPerRound = 4000
	stormCheck       = 1000
	// stormOpsPerCall consecutive operations make one closed-loop call of
	// call_p50_us and call_p99_us. A single operation's cost is bimodal —
	// take-downs cost a few µs, bring-ups a few hundred — and the two
	// kinds alternate, so the median of single operations falls in the gap
	// between them; a call of 8 holds both kinds in equal number.
	stormOpsPerCall = 8
)

// stormComp renders one lightweight storm component; i is its index in
// the population. The population's shape is the same for every seed —
// every 10th component carries a mode ladder, none a distribution-valued
// budget — so seeds differ in placement and op order, not in how much
// work the population makes.
func stormComp(i int, name string, cpu int, in, out []port) comp {
	c := comp{name: name, bincode: "pb.Prod", cpu: cpu, prio: 5, hz: 100, execUS: 5, usage: 0.0005, in: in, out: out}
	if len(out) == 0 {
		c.bincode = "pb.Cons"
	}
	if i%10 == 3 {
		c.modes = []mode{{name: "eco", hz: 50, usage: 0.00025}}
	}
	return c
}

func genStorm(seed uint64) []unit {
	rng := newRNG(seed, "reconfig-storm/population")
	// The seed decides which group lands on which CPU.
	cpus := rng.Perm(stormGroups)
	var cs []comp
	for g := 0; g < stormGroups; g++ {
		cpu := cpus[g] % stormCPUs
		t := []port{{name: fmt.Sprintf("t%03d", g)}}
		u := []port{{name: fmt.Sprintf("u%03d", g)}}
		cs = append(cs, stormComp(len(cs), fmt.Sprintf("p%03d", g), cpu, nil, t))
		cs = append(cs, stormComp(len(cs), fmt.Sprintf("r%03d", g), cpu, t, u))
		for f := 0; f < stormFanOut; f++ {
			cs = append(cs, stormComp(len(cs), fmt.Sprintf("c%03d%d", g, f), cpu, u, nil))
		}
	}
	// The heavy tail overflows every CPU it sits on, keeping a standing
	// set of admission-denied waiters that resolution keeps reconsidering.
	for h := 0; h < stormHeavy; h++ {
		cs = append(cs, comp{name: fmt.Sprintf("z%03d", h), bincode: "pb.Cons", cpu: h % (stormCPUs - 2),
			prio: 6, hz: 100, execUS: 4500, usage: 0.45})
	}
	return render(cs)
}

// stormOps schedules the storm's operations. Odd operations take the
// next component of a seed-permuted order down one step, by the next kind
// of stormDownKinds its state allows; once stormWindow components are
// down, even operations bring back the one taken down longest ago. The
// population therefore stays stationary.
type stormOps struct {
	d      *core.DRCR
	order  []string
	next   int
	downed []string
	// promote is the component the next operation promotes again.
	promote string
	n       int
}

// stormWindow is how many components the storm holds down at once.
const stormWindow = 32

// stormDownKinds is the cycle of take-down operations. Suspend and
// downgrade, and the resume and promotion that undo them, leave the
// admission view alone and cost a small fraction of the others; keeping
// them to a quarter of the cycle keeps the median operation clear of the
// gap between the two cost clusters.
var stormDownKinds = [...]string{"remove", "disable", "revoke", "suspend", "remove", "disable", "revoke", "downgrade"}

// op returns the next operation and its target, always legal for the
// target's current state.
func (s *stormOps) op() (kind, name string) {
	s.n++
	if s.promote != "" {
		// A downgrade is undone by the very next operation, so at most one
		// component is degraded at a time.
		name, s.promote = s.promote, ""
		return "promote", name
	}
	if s.n%2 == 0 && len(s.downed) >= stormWindow {
		name, s.downed = s.downed[0], s.downed[1:]
		info, ok := s.d.Component(name)
		switch {
		case !ok:
			return "deploy", name
		case info.Revoked:
			return "restore", name
		case info.State == core.Disabled:
			return "enable", name
		case info.State == core.Suspended:
			return "resume", name
		}
		return "promote", name
	}
	name = s.order[s.next%len(s.order)]
	kind = stormDownKinds[s.next%len(stormDownKinds)]
	s.next++
	s.downed = append(s.downed, name)
	info, ok := s.d.Component(name)
	switch {
	case !ok:
		return "deploy", name
	case kind == "suspend" && info.State != core.Active,
		kind == "downgrade" && (info.State != core.Active || info.Mode+1 >= len(info.Modes)),
		kind == "revoke" && info.Revoked:
		kind = "disable"
	}
	if kind == "disable" && info.State == core.Disabled {
		kind = "enable"
	}
	if kind == "downgrade" {
		s.downed = s.downed[:len(s.downed)-1]
		s.promote = name
	}
	return kind, name
}

func runStorm(seed uint64, r *round) error {
	units := genStorm(seed)
	srcs := make(map[string]string, len(units))
	names := make([]string, len(units))
	for i, u := range units {
		r.stream.add("%s", u.src)
		srcs[u.name], names[i] = u.src, u.name
	}

	setupStart := time.Now()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: stormCPUs, Seed: seed})
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
	if _, err := deployBundle(r, false, d, fw, "storm.pop", units, descs); err != nil {
		return fmt.Errorf("deploy population: %w", err)
	}
	r.setup = time.Since(setupStart)

	// The schedule walks the groups in a seed-permuted order, each group's
	// producer, relay and consumers in turn, with one heavy waiter after
	// every sixth group: every seed meets the same sequence of component
	// roles, on different components.
	ops := &stormOps{d: d}
	rng := newRNG(seed, "reconfig-storm/ops")
	per := 2 + stormFanOut
	heavy := stormGroups * per
	for k, g := range rng.Perm(stormGroups) {
		ops.order = append(ops.order, names[g*per:(g+1)*per]...)
		if k%6 == 5 && heavy < len(names) {
			ops.order = append(ops.order, names[heavy])
			heavy++
		}
	}
	ops.order = append(ops.order, names[heavy:]...)
	chk := &checker{r: r, d: d, descs: descs}
	events0 := k.EventsFired()
	r.beginPhase(d.Observer().Snapshot())
	for i := 1; i <= stormOpsPerRound; i++ {
		kind, name := ops.op()
		r.stream.add("op %s %s", kind, name)
		var f func() error
		switch kind {
		case "deploy":
			f = func() error {
				desc, err := r.parse(srcs[name])
				if err != nil {
					return err
				}
				descs[name] = desc
				return d.Deploy(desc)
			}
		case "remove":
			f = func() error { return d.Remove(name) }
		case "enable":
			f = func() error { return d.Enable(name) }
		case "disable":
			f = func() error { return d.Disable(name) }
		case "revoke":
			f = func() error { return d.RevokeBudget(name, "storm revocation") }
		case "restore":
			f = func() error { return d.RestoreBudget(name) }
		case "downgrade":
			f = func() error { return d.Downgrade(name, "storm downgrade") }
		case "promote":
			f = func() error { return d.AllowPromotion(name) }
		case "suspend":
			f = func() error { return d.Suspend(name) }
		case "resume":
			f = func() error { return d.Resume(name) }
		}
		_ = r.op("core", kind, f)
		if i%stormCheck == 0 {
			chk.check(fmt.Sprintf("op %d", i))
		}
	}
	r.endPhase(k.EventsFired()-events0, func() []obs.Snapshot { return []obs.Snapshot{d.Observer().Snapshot()} })
	r.count("rtos.events", float64(r.events))
	r.addTriggerCounts(k)
	r.state = stateDigest(d)
	return nil
}

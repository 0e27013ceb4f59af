package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sim"
)

// federation: 4 nodes × 2 simulated CPUs advanced in parallel between
// barriers, producer/consumer pairs wired across nodes over lossy links,
// a seeded cluster-op stream (deploy, remove, migrate, revoke, restore)
// and one partition/heal cycle per simulated second. The only workload
// that exercises the cluster and net layers.
const (
	fedNodes    = 4
	fedCPUs     = 2
	fedPairs    = 12
	fedHorizon  = time.Second
	fedOpEvery  = 20 // barrier steps between op draws
	fedOpsUntil = 700 * time.Millisecond
	fedCheck    = 200 // barrier steps between checkpoints
)

type fedInputs struct {
	units  []unit
	srcs   map[string]string
	home   map[string]int // initial node per component
	cut    []int          // the nodes the partition separates from the rest
	cutAt  time.Duration
	cutFor time.Duration
	// targets are the components the op schedule works on, in order;
	// pair 0 carries the stochastic producer and is left alone.
	targets []string
}

func genFed(seed uint64) fedInputs {
	rng := newRNG(seed, "federation")
	in := fedInputs{srcs: map[string]string{}, home: map[string]int{}}
	var cs []comp
	for i := 0; i < fedPairs; i++ {
		topic := fmt.Sprintf("ft%02d", i)
		p := comp{name: fmt.Sprintf("fp%02d", i), bincode: "pb.Prod", cpu: i % fedCPUs, prio: 3,
			hz: 500, execUS: 20, usage: budget(20, 500), out: []port{{name: topic}}}
		if i == 0 {
			p.dist, p.p = normalBudget(p.usage), 0.95
		}
		c := comp{name: fmt.Sprintf("fc%02d", i), bincode: "pb.Cons", cpu: (i + 1) % fedCPUs, prio: 4,
			hz: 250, execUS: 20, usage: budget(20, 250), in: []port{{name: topic}},
			modes: []mode{{name: "eco", hz: 100, usage: budget(20, 100)}}}
		in.home[p.name] = i % fedNodes
		in.home[c.name] = (i%fedNodes + 1 + i/fedNodes%(fedNodes-1)) % fedNodes
		cs = append(cs, p, c)
	}
	in.units = render(cs)
	for _, u := range in.units {
		in.srcs[u.name] = u.src
	}
	// The partition always cuts two neighbouring nodes off for 200 ms; the
	// seed picks which two. The pair layout is symmetric under rotating
	// the node ids, so every choice cuts the same amount of wiring.
	in.cutAt, in.cutFor = 250*time.Millisecond, 200*time.Millisecond
	first := rng.IntN(fedNodes)
	in.cut = []int{first, (first + 1) % fedNodes}
	sort.Ints(in.cut)
	// The op schedule walks the pairs in a seed-permuted order.
	for _, i := range rng.Perm(fedPairs - 1) {
		in.targets = append(in.targets, fmt.Sprintf("fp%02d", i+1), fmt.Sprintf("fc%02d", i+1))
	}
	return in
}

func runFederation(seed uint64, r *round) error {
	in := genFed(seed)
	for _, u := range in.units {
		r.stream.add("%s @n%d", u.src, in.home[u.name])
	}
	r.stream.add("cut %v at %v for %v", in.cut, in.cutAt, in.cutFor)
	r.eventLayer = "cluster"

	setupStart := time.Now()
	c, err := cluster.New(cluster.Config{
		Nodes: fedNodes, NumCPUs: fedCPUs, Seed: seed, Parallel: true,
		Net: net.Config{DropProb: 0.02, DupProb: 0.01},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := registerBodies(c); err != nil {
		return err
	}
	descs := map[string]*descriptor.Component{}
	for _, u := range in.units {
		desc, err := r.parse(u.src)
		if err != nil {
			return err
		}
		descs[u.name] = desc
		if _, err := r.timed("cluster", "deploy", func() error { return c.DeployOn(in.home[u.name], desc) }); err != nil {
			return fmt.Errorf("deploy %s: %w", u.name, err)
		}
	}
	c.Net().SchedulePartition(sim.Time(0).Add(in.cutAt), in.cutFor, in.cut...)
	r.setup = time.Since(setupStart)

	sched := &fedOps{c: c, in: in, descs: descs}
	checkers := make([]*checker, fedNodes)
	tasks := make([]taskSet, fedNodes)
	for i := range checkers {
		checkers[i] = &checker{r: r, d: c.Node(i).DRCR(), descs: descs}
		tasks[i] = taskSet{}
	}
	step := c.Step()
	steps := int(fedHorizon / step)
	events0 := fedEvents(c)
	r.beginPhase(fedSnapshots(c)...)
	for s := 1; s <= steps; s++ {
		if err := r.advance("cluster", "barrier", step, func() error { return c.Run(step) }); err != nil {
			return err
		}
		if s%fedOpEvery == 0 {
			for i := range tasks {
				tasks[i].poll(c.Node(i).Kernel())
			}
			if c.Now() < sim.Time(fedOpsUntil) {
				sched.op(r)
			}
		}
		if s%fedCheck == 0 {
			for i, ck := range checkers {
				ck.check(fmt.Sprintf("n%d step %d", i, s))
			}
		}
	}
	r.endPhase(fedEvents(c)-events0, func() []obs.Snapshot { return fedSnapshots(c) })

	if !c.Converged() {
		r.fail("the federation did not converge after the heal")
	}
	st := c.Net().Stats()
	if st.Sent+st.Duplicated != st.Delivered+st.Dropped+uint64(st.Inflight) || st.PartitionDrops+st.LossDrops != st.Dropped {
		r.fail("net ledger does not balance: %+v", st)
	}
	r.count("net.sent", float64(st.Sent))
	r.count("net.duplicated", float64(st.Duplicated))
	r.count("net.delivered", float64(st.Delivered))
	r.count("net.dropped", float64(st.Dropped))
	r.count("cluster.barriers", float64(steps))
	if c.Converged() {
		r.count("cluster.converged", 1)
	}
	r.count("rtos.events", float64(r.events))
	r.addTaskCounts(tasks...)
	for i := 0; i < fedNodes; i++ {
		r.addTriggerCounts(c.Node(i).Kernel())
	}
	r.state = c.Digest()
	return nil
}

// fedOps is the federation's op schedule: each target in turn is
// revoked, restored, migrated, removed and deployed again, one operation
// per op slot, so every seed applies the same mix of cluster operations.
type fedOps struct {
	c     *cluster.Cluster
	in    fedInputs
	descs map[string]*descriptor.Component
	n     int
}

var fedKinds = [...]string{"revoke", "restore", "migrate", "remove", "deploy"}

func (s *fedOps) op(r *round) {
	name := s.in.targets[s.n/len(fedKinds)%len(s.in.targets)]
	kind := fedKinds[s.n%len(fedKinds)]
	s.n++
	node, placed := s.c.GlobalView().Placements[name]
	if placed == (kind == "deploy") {
		r.stream.add("op skip %s %s", kind, name)
		return
	}
	// Deploy and migrate target the next node that holds no copy: after a
	// partition, reconciliation may still be retiring a stale one.
	dst := -1
	if kind == "deploy" || kind == "migrate" {
		for off := 1; off <= fedNodes && dst < 0; off++ {
			n := (node + off) % fedNodes
			if _, held := s.c.Node(n).DRCR().Component(name); !held && !(placed && n == node) {
				dst = n
			}
		}
		if dst < 0 {
			r.stream.add("op skip %s %s", kind, name)
			return
		}
	}
	r.stream.add("op %s %s %d", kind, name, dst)
	c := s.c
	switch kind {
	case "revoke":
		_ = r.op("cluster", kind, func() error { return c.RevokeBudget(name, "cluster revocation") })
	case "restore":
		_ = r.op("cluster", kind, func() error { return c.RestoreBudget(name) })
	case "migrate":
		_ = r.op("cluster", kind, func() error { return c.Migrate(name, dst) })
	case "remove":
		_ = r.op("cluster", kind, func() error { return c.Remove(name) })
	case "deploy":
		_ = r.op("cluster", kind, func() error {
			desc, err := r.parse(s.in.srcs[name])
			if err != nil {
				return err
			}
			s.descs[name] = desc
			return c.DeployOn(dst, desc)
		})
	}
}

func fedEvents(c *cluster.Cluster) uint64 {
	var n uint64
	for i := 0; i < c.Nodes(); i++ {
		n += c.Node(i).Kernel().EventsFired()
	}
	return n
}

// fedSnapshots are every node plane's snapshot plus the cluster plane's.
func fedSnapshots(c *cluster.Cluster) []obs.Snapshot {
	snaps := []obs.Snapshot{c.Plane().Snapshot()}
	for i := 0; i < c.Nodes(); i++ {
		snaps = append(snaps, c.Node(i).Plane().Snapshot())
	}
	return snaps
}

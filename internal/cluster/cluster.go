// Package cluster federates N DRCR nodes — each a full stack of OSGi
// framework, simulated RTAI kernel and component runtime — over the
// deterministic simulated network of package net.
//
// The cluster advances all node kernels in lockstep windows whose width
// is the network's conservative lookahead bound (the minimum one-way
// link latency): a message sent inside a window cannot be due before the
// window's closing barrier, so nodes never roll back. All federation
// logic (heartbeats, reports, provision exchange, data replication,
// failure detection, leader election, placement and migration) runs
// single-threaded at barriers, so cluster runs are byte-deterministic
// and digest-pinnable even when Config.Parallel advances node windows on
// real OS threads.
//
// Leadership is bully-lite: every node believes the lowest-numbered node
// it can still hear heartbeats from (itself included) is the leader.
// Non-leaders stream load/degradation reports to their leader; the
// leader aggregates them into a global view that drives cluster-wide
// admission (Deploy places components on the node with the most
// headroom), budget revocation routing, degradation-driven migration
// (a component stuck below its full contract moves to a node with spare
// budget), and node-loss re-placement. Under a partition each side
// elects its own leader and manages its own components; after the heal
// the surviving leader reconciles duplicates from stale placements.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Config parameterises a Cluster.
type Config struct {
	// Nodes is the node count (default 2).
	Nodes int
	// NumCPUs is the simulated processor count per node (default 1).
	NumCPUs int
	// Seed drives every stream: node kernels and the network fork from it
	// (default 1).
	Seed uint64
	// Net overrides network parameters; Nodes and Seed are filled in.
	Net net.Config
	// ObsLevel is the sampling level of the per-node and cluster planes.
	ObsLevel obs.Level
	// Parallel advances node kernel windows on separate goroutines.
	// Outcomes are byte-identical to sequential: nodes only interact at
	// barriers, through the network's canonical ordering.
	Parallel bool
}

func (c *Config) applyDefaults() {
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.NumCPUs <= 0 {
		c.NumCPUs = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// The federation's fixed periods.
const (
	// heartbeatEvery is the failure-detector beacon period.
	heartbeatEvery = 2 * time.Millisecond
	// reportEvery is the load/degradation report period.
	reportEvery = 5 * time.Millisecond
	// syncEvery is the port-data replication period.
	syncEvery = time.Millisecond
	// nodeLossAfter is the heartbeat silence after which a peer is
	// declared lost. New rejects a network whose worst link latency is
	// not below nodeLossAfter − heartbeatEvery: healthy peers would flap.
	nodeLossAfter = 6 * time.Millisecond
	// migrateCooldown is the minimum interval between placement actions
	// on the same component, damping migration churn.
	migrateCooldown = 20 * time.Millisecond
)

// expKey identifies one exported provision: "topic|component@nodeN".
type expKey string

// Node is one cluster member: a complete DRCom stack plus the local
// federation state (failure detector, leader belief, replica registry).
type Node struct {
	id     int
	name   string
	fw     *osgi.Framework
	kernel *rtos.Kernel
	drcr   *core.DRCR
	plane  *obs.Plane

	// Failure detector: last heartbeat heard per peer and the derived
	// reachability set; leader is the lowest reachable id.
	lastHB    []sim.Time
	reachable []bool
	leader    int

	// reports holds the freshest load report per node while this node
	// acts as a leader (its own entry is refreshed locally).
	reports map[int]*report

	// exported tracks provisions this node has advertised to peers;
	// installed tracks remote provisions applied here (guarding against
	// duplicated provision messages); replicas refcounts the SHM
	// replicas created here per topic; lastGen is the per-topic SHM
	// generation at the last data sync.
	exported  map[expKey]descriptor.Port
	installed map[expKey]descriptor.Port
	replicas  map[string]int
	lastGen   map[string]uint64

	nextHB, nextReport, nextSync sim.Time

	// adm is the DRCR's admitted set as of admEpoch, re-read only when
	// the DRCR's AdmittedEpoch moves (admittedComps). A fresh DRCR is at
	// epoch 0 with nothing admitted, so the zero values are current.
	adm      []core.Admitted
	admEpoch uint64
	// provEpoch / provGen are the admitted epoch and catalog generation
	// the export set was last diffed at (stageProvisions); shmTopics is
	// the export set's SHM topics, re-listed whenever that diff moves it.
	provEpoch, provGen uint64
	shmTopics          []string
	// self is the node's own load report, rebuilt when admEpoch moves.
	self      *report
	selfEpoch uint64
}

// Name returns the node's display name ("n3").
func (n *Node) Name() string { return n.name }

// DRCR exposes the node's component runtime.
func (n *Node) DRCR() *core.DRCR { return n.drcr }

// Kernel exposes the node's simulated kernel.
func (n *Node) Kernel() *rtos.Kernel { return n.kernel }

// Plane exposes the node's observability plane.
func (n *Node) Plane() *obs.Plane { return n.plane }

// nodeName is node id's display name, rendered once in New.
func (c *Cluster) nodeName(id int) string { return c.nodes[id].name }

// report is a node's load/degradation summary as its leader sees it.
// Reports are immutable once built: a node's own report is shared
// between its reports table and its cache until the next rebuild.
type report struct {
	load     float64
	admitted int
	// comps maps component name → admitted service mode (0 = full);
	// names lists its keys in sorted order.
	comps map[string]int
	names []string
}

// placement is the catalog entry for one cluster-managed component.
type placement struct {
	desc *descriptor.Component
	node int
}

// Cluster owns N federated nodes and the fabric between them.
type Cluster struct {
	cfg   Config
	nodes []*Node
	net   *net.Network
	plane *obs.Plane // cluster-level control-plane spans
	step  sim.Duration
	now   sim.Time

	// placements is the deployment catalog: the descriptor and intended
	// node of every cluster-managed component. Leaders consult and amend
	// it; under a partition each side amends entries for its own moves
	// and the post-heal reconciliation enforces it again.
	placements map[string]*placement
	// cooldown is the last placement action per component.
	cooldown map[string]sim.Time
	// partSpans chains each partition's heal span to its cut span.
	partSpans map[int]obs.SpanID
	// migStart records when a network migration was decided, per
	// component; the barrier sweep records the end-to-end sim latency
	// once the component is admitted on its catalog node.
	migStart map[string]sim.Time
	// placeGen moves whenever the catalog gains or loses an entry (the
	// inputs of every node's export set besides its admitted set).
	placeGen uint64
	// ungated makes every barrier stage recompute from scratch instead
	// of skipping work while its inputs hold still: the reference the
	// change-driven barrier is tested against.
	ungated bool

	closed bool
}

// New boots a cluster of cfg.Nodes DRCom stacks over a fresh network.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	root := sim.NewRand(cfg.Seed)
	ncfg := cfg.Net
	ncfg.Nodes = cfg.Nodes
	if ncfg.Seed == 0 {
		ncfg.Seed = root.Uint64()
	}
	nw := net.New(ncfg)
	if worst := nw.MaxLatency(); worst >= nodeLossAfter-heartbeatEvery {
		return nil, fmt.Errorf("cluster: worst link latency %v is not below %v (node-loss silence %v minus heartbeat period %v)",
			worst, nodeLossAfter-heartbeatEvery, nodeLossAfter, heartbeatEvery)
	}
	c := &Cluster{
		cfg:        cfg,
		net:        nw,
		plane:      obs.NewPlane(obs.Options{Level: cfg.ObsLevel, Node: "cluster"}),
		step:       sim.Duration(nw.Lookahead()),
		placements: map[string]*placement{},
		cooldown:   map[string]sim.Time{},
		partSpans:  map[int]obs.SpanID{},
		migStart:   map[string]sim.Time{},
	}
	for i := 0; i < cfg.Nodes; i++ {
		fw := osgi.NewFramework()
		kernel := rtos.NewKernel(rtos.Config{
			NumCPUs: cfg.NumCPUs,
			Seed:    root.Uint64(),
		})
		name := fmt.Sprintf("n%d", i)
		plane := obs.NewPlane(obs.Options{Level: cfg.ObsLevel, Node: name})
		d, err := core.New(fw, kernel, core.Options{Obs: plane})
		if err != nil {
			for _, n := range c.nodes {
				n.drcr.Close()
				_ = n.fw.Shutdown()
			}
			return nil, err
		}
		n := &Node{
			id:        i,
			name:      name,
			fw:        fw,
			kernel:    kernel,
			drcr:      d,
			plane:     plane,
			lastHB:    make([]sim.Time, cfg.Nodes),
			reachable: make([]bool, cfg.Nodes),
			reports:   map[int]*report{},
			exported:  map[expKey]descriptor.Port{},
			installed: map[expKey]descriptor.Port{},
			replicas:  map[string]int{},
			lastGen:   map[string]uint64{},
		}
		for j := range n.reachable {
			n.reachable[j] = true
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// Node returns one member.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Net exposes the simulated fabric (partition scheduling, ledger).
func (c *Cluster) Net() *net.Network { return c.net }

// Plane exposes the cluster-level observability plane (Send/Recv,
// Migrate, Partition/Heal, Place, NodeLoss spans).
func (c *Cluster) Plane() *obs.Plane { return c.plane }

// Now is the cluster barrier clock.
func (c *Cluster) Now() sim.Time { return c.now }

// Step is the barrier width — the network's conservative lookahead.
func (c *Cluster) Step() time.Duration { return time.Duration(c.step) }

// RegisterBody binds a bincode to a body factory on every node, so a
// component can activate wherever placement puts it.
func (c *Cluster) RegisterBody(bincode string, f core.BodyFactory) error {
	for _, n := range c.nodes {
		if err := n.drcr.RegisterBody(bincode, f); err != nil {
			return err
		}
	}
	return nil
}

// Run advances the whole cluster by d of simulated time, in lockstep
// conservative windows. Durations that are not a multiple of Step leave
// the final window short; periodic duties use absolute deadlines, so an
// unaligned stop never skips them.
func (c *Cluster) Run(d time.Duration) error {
	if c.closed {
		return errors.New("cluster: closed")
	}
	end := c.now.Add(sim.Duration(d))
	for c.now < end {
		b := c.now.Add(c.step)
		if b > end {
			b = end
		}
		if err := c.advanceNodes(b); err != nil {
			return err
		}
		c.now = b
		c.atBarrier(b)
	}
	return nil
}

// advanceNodes moves every node kernel to the barrier instant.
func (c *Cluster) advanceNodes(b sim.Time) error {
	if !c.cfg.Parallel {
		for _, n := range c.nodes {
			if err := n.kernel.RunUntil(b); err != nil {
				return fmt.Errorf("cluster: node %d: %w", n.id, err)
			}
		}
		return nil
	}
	errs := make([]error, len(c.nodes))
	done := make(chan int, len(c.nodes))
	for i, n := range c.nodes {
		go func(i int, n *Node) {
			errs[i] = n.kernel.RunUntil(b)
			done <- i
		}(i, n)
	}
	for range c.nodes {
		<-done
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
	}
	return nil
}

// atBarrier runs the federation control plane at barrier instant b. The
// step order is fixed — stage outgoing traffic, advance the fabric,
// apply what arrived, then detect failures and let leaders act — so two
// runs with the same seed take identical decisions.
func (c *Cluster) atBarrier(b sim.Time) {
	// 1. Stage heartbeats and reports on their own deadlines.
	for _, n := range c.nodes {
		if b >= n.nextHB {
			n.nextHB = b.Add(sim.Duration(heartbeatEvery))
			for _, peer := range c.nodes {
				if peer.id != n.id {
					c.net.Send(b, net.Message{Src: n.id, Dst: peer.id, Kind: net.Heartbeat})
				}
			}
		}
		if b >= n.nextReport {
			n.nextReport = b.Add(sim.Duration(reportEvery))
			c.stageReport(b, n)
		}
	}

	// 2. Diff exported provisions and replicate port data.
	for _, n := range c.nodes {
		c.stageProvisions(b, n)
		if b >= n.nextSync {
			n.nextSync = b.Add(sim.Duration(syncEvery))
			c.stageData(b, n)
		}
	}

	// 3. Advance the fabric; account lost trigger intents; trace cuts.
	deliveries, dropped, topo := c.net.Advance(b)
	for _, ev := range topo {
		if ev.Heal {
			c.plane.Heal(ev.At, ev.Cut, "link restored", c.partSpans[ev.Index])
		} else {
			c.partSpans[ev.Index] = c.plane.Partition(ev.At, ev.Cut, "links severed")
		}
	}
	for _, m := range dropped {
		if m.Kind == net.Trigger {
			// The release intent is gone; keep the destination kernel's
			// conservation ledger balanced over it.
			c.nodes[m.Dst].kernel.NoteDroppedTrigger()
		}
	}

	// 4. Apply deliveries in the fabric's canonical order.
	for _, m := range deliveries {
		c.deliver(b, m)
	}

	// 5. Failure detection and leader election, then leader duties.
	c.detectFailures(b)
	for _, n := range c.nodes {
		if n.leader == n.id {
			c.leaderDuties(b, n)
		}
	}

	// 6. Close out migrations whose component is admitted at its
	// catalog node: record the end-to-end sim latency.
	c.checkMigrations(b)
}

// checkMigrations sweeps the open migration set: a component admitted
// (ACTIVE or SUSPENDED) on its catalog node completes its migration,
// and the decision-to-admission sim time lands in the cluster plane's
// migrate-e2e histogram.
func (c *Cluster) checkMigrations(b sim.Time) {
	if len(c.migStart) == 0 {
		return
	}
	names := make([]string, 0, len(c.migStart))
	for name := range c.migStart {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pl := c.placements[name]
		if pl == nil {
			delete(c.migStart, name)
			continue
		}
		if !c.admittedOn(c.nodes[pl.node], name) {
			continue
		}
		c.plane.RecordLatency(obs.LatMigrate, int64(b.Sub(c.migStart[name])))
		delete(c.migStart, name)
	}
}

// Close shuts every node down.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, n := range c.nodes {
		n.drcr.Close()
		_ = n.fw.Shutdown()
	}
}

// sortedPlacementNames walks the catalog deterministically.
func (c *Cluster) sortedPlacementNames() []string {
	names := make([]string, 0, len(c.placements))
	for name := range c.placements {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

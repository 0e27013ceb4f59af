package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/rtos"
	"repro/internal/sim"
)

// Cluster churn-under-partition campaign: N federated DRCR nodes run a
// producer/consumer mesh while components are deployed, removed and
// revoked on a seeded schedule and one partition/heal cycle cuts the
// cluster in half. The campaign digest folds every node's lifecycle
// log, the per-node observability streams, the cluster control plane
// and the network conservation ledger; two runs with the same spec must
// agree byte for byte, with Parallel on or off, which is how the
// federation layer's determinism is pinned in CI.

// ClusterSpec sizes one federated churn campaign.
type ClusterSpec struct {
	// Nodes is the cluster size (default 8).
	Nodes int
	// Groups is the number of producer→consumer pairs spread across the
	// cluster (default Nodes, one pair per node).
	Groups int
	// Seed drives kernels, network and the op schedule (default 1).
	Seed uint64
	// RunFor is the simulated campaign length (default 200ms).
	RunFor time.Duration
	// NumCPUs per node (default 2).
	NumCPUs int
	// PartitionAt/PartitionFor place one cut isolating the upper half of
	// the node ids (defaults: RunFor/4 and RunFor/4).
	PartitionAt, PartitionFor time.Duration
	// DropProb/DupProb season the links (defaults 0.02/0.01).
	DropProb, DupProb float64
	// Parallel advances node windows on real threads.
	Parallel bool
	// ObsLevel is the per-node and cluster sampling level.
	ObsLevel obs.Level
}

func (s *ClusterSpec) applyDefaults() {
	if s.Nodes <= 0 {
		s.Nodes = 8
	}
	if s.Groups <= 0 {
		s.Groups = s.Nodes
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.RunFor <= 0 {
		s.RunFor = 200 * time.Millisecond
	}
	if s.NumCPUs <= 0 {
		s.NumCPUs = 2
	}
	if s.PartitionAt <= 0 {
		s.PartitionAt = s.RunFor / 4
	}
	if s.PartitionFor <= 0 {
		s.PartitionFor = s.RunFor / 4
	}
	if s.DropProb == 0 {
		s.DropProb = 0.02
	}
	if s.DupProb == 0 {
		s.DupProb = 0.01
	}
}

// ClusterResult summarises one campaign run.
type ClusterResult struct {
	// Digest pins the whole run (see Cluster.Digest).
	Digest string
	// StitchDigest pins the cross-node causal chains the stitch tables
	// reconstruct (see Cluster.StitchDigest); like Digest it must not
	// depend on Parallel.
	StitchDigest string
	// Latency is the cluster-merged latency histogram summary
	// (resolve/deploy on node planes, migrate-e2e/revoke-propagation on
	// the control plane). Wall-clock: reported, never digested.
	Latency []obs.LatencyStat
	// Converged reports post-heal global-view convergence.
	Converged bool
	// Migrations/Placements/NodeLosses count cluster-plane decisions.
	Migrations, Placements, NodeLosses uint64
	// Sent/Delivered/Dropped are the network ledger totals.
	Sent, Delivered, Dropped uint64
	// Events is the summed lifecycle event count across nodes.
	Events int
}

// clusterPairXML builds a producer/consumer pair over one short topic.
func clusterPairXML(i int) (topic, prod, cons string) {
	topic = fmt.Sprintf("t%d", i)
	prodName := fmt.Sprintf("pr%d", i)
	consName := fmt.Sprintf("co%d", i)
	prod = fmt.Sprintf(`<component name=%q desc="producer" type="periodic" cpuusage="0.10">
  <implementation bincode="wl.cluster.Prod"/>
  <periodictask frequence="500" runoncup="0" priority="3"/>
  <outport name=%q interface="RTAI.SHM" type="Integer" size="4"/>
</component>`, prodName, topic)
	cons = fmt.Sprintf(`<component name=%q desc="consumer" type="periodic" cpuusage="0.15">
  <implementation bincode="wl.cluster.Cons"/>
  <periodictask frequence="250" runoncup="0" priority="4"/>
  <inport name=%q interface="RTAI.SHM" type="Integer" size="4"/>
  <mode name="eco" frequence="100" cpuusage="0.05"/>
</component>`, consName, topic)
	return topic, prod, cons
}

// RunClusterCampaign executes the federated churn-under-partition
// campaign and digests everything observable about it.
func RunClusterCampaign(spec ClusterSpec) (ClusterResult, error) {
	spec.applyDefaults()
	c, err := cluster.New(cluster.Config{
		Nodes:    spec.Nodes,
		NumCPUs:  spec.NumCPUs,
		Seed:     spec.Seed,
		Parallel: spec.Parallel,
		ObsLevel: spec.ObsLevel,
		Net:      net.Config{DropProb: spec.DropProb, DupProb: spec.DupProb},
	})
	if err != nil {
		return ClusterResult{}, err
	}
	defer c.Close()

	if err := c.RegisterBody("wl.cluster.Prod", func(d *descriptor.Component) rtos.Body {
		topic := d.OutPorts[0].Name
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(topic); err == nil {
				_ = shm.Set(int(j.Index%4), int64(j.Index))
			}
		}
	}); err != nil {
		return ClusterResult{}, err
	}
	if err := c.RegisterBody("wl.cluster.Cons", func(*descriptor.Component) rtos.Body {
		return func(*rtos.JobContext) {}
	}); err != nil {
		return ClusterResult{}, err
	}

	// Producers pin round-robin across the lower half, consumers across
	// the upper half, so the partition cuts live port wirings.
	type pair struct{ prodXML, consXML, prodName, consName string }
	pairs := make([]pair, spec.Groups)
	half := spec.Nodes / 2
	if half == 0 {
		half = 1
	}
	for i := range pairs {
		_, prodXML, consXML := clusterPairXML(i)
		pairs[i] = pair{
			prodXML:  prodXML,
			consXML:  consXML,
			prodName: fmt.Sprintf("pr%d", i),
			consName: fmt.Sprintf("co%d", i),
		}
		if err := c.DeployXMLOn(i%half, prodXML); err != nil {
			return ClusterResult{}, err
		}
		dst := half + i%(spec.Nodes-half)
		if err := c.DeployXMLOn(dst, consXML); err != nil {
			return ClusterResult{}, err
		}
	}

	c.Net().SchedulePartition(sim.Time(0).Add(sim.Duration(spec.PartitionAt)), spec.PartitionFor,
		lowerHalf(spec.Nodes)...)

	// Seeded churn: the op stream interleaves with the run in fixed
	// slices, removing/redeploying producers and revoking consumers.
	rng := sim.NewRand(spec.Seed ^ 0x9e3779b97f4a7c15)
	slices := 10
	slice := spec.RunFor / time.Duration(slices)
	for s := 0; s < slices; s++ {
		if err := c.Run(slice); err != nil {
			return ClusterResult{}, err
		}
		p := pairs[int(rng.Int63n(int64(len(pairs))))]
		switch rng.Int63n(3) {
		case 0:
			if _, placed := c.GlobalView().Placements[p.prodName]; placed {
				_ = c.Remove(p.prodName)
			} else {
				_ = c.DeployXMLOn(int(rng.Int63n(int64(half))), p.prodXML)
			}
		case 1:
			_ = c.RevokeBudget(p.consName, "campaign revocation")
		case 2:
			_ = c.RestoreBudget(p.consName)
		}
	}
	// Quiet tail: let provisions, reports and reconciliation settle.
	if err := c.Run(spec.RunFor / 2); err != nil {
		return ClusterResult{}, err
	}

	res := ClusterResult{
		Digest:       c.Digest(),
		StitchDigest: c.StitchDigest(),
		Latency:      c.LatencyStats(),
		Converged:    c.Converged(),
	}
	snap := c.Plane().Snapshot()
	res.Migrations = snap.Cluster.Migrations
	res.Placements = snap.Cluster.Placements
	res.NodeLosses = snap.Cluster.NodeLosses
	st := c.Net().Stats()
	res.Sent, res.Delivered, res.Dropped = st.Sent, st.Delivered, st.Dropped
	for i := 0; i < c.Nodes(); i++ {
		res.Events += len(c.Node(i).DRCR().Events())
	}
	return res, nil
}

func lowerHalf(n int) []int {
	half := n / 2
	if half == 0 {
		half = 1
	}
	side := make([]int, half)
	for i := range side {
		side[i] = i
	}
	return side
}

// The acceptance campaign: a seeded 8-node churn storm with one
// partition/heal cycle must produce byte-identical digests across two
// runs, and the global view must converge after the heal.
func TestClusterCampaignDeterministic(t *testing.T) {
	spec := ClusterSpec{Nodes: 8, Seed: 42, NumCPUs: 4, RunFor: 120 * time.Millisecond}
	ref, err := RunClusterCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatal("global view did not converge after the heal")
	}
	if ref.NodeLosses == 0 {
		t.Fatal("partition never triggered a node-loss decision")
	}
	if ref.Dropped == 0 {
		t.Fatal("campaign network too clean to prove anything")
	}
	again, err := RunClusterCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != ref.Digest {
		t.Fatalf("same spec, different digests:\n%s\n%s", ref.Digest, again.Digest)
	}
}

func TestClusterCampaignParallelMatchesSequential(t *testing.T) {
	spec := ClusterSpec{Nodes: 4, Seed: 9, RunFor: 80 * time.Millisecond}
	ref, err := RunClusterCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallel = true
	got, err := RunClusterCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != ref.Digest {
		t.Fatalf("Parallel changed the campaign digest:\n%s\n%s", ref.Digest, got.Digest)
	}
}

package workload

import (
	"testing"
	"time"
)

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

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// Whole-bundle deploy goldens: the same synthetic composition DAG is
// deployed two ways — one Deploy per descriptor (the legacy loop) and
// one batched DeployAll (the path bundle adoption and cluster batches
// take) — and the batched run's digests must equal the ones recorded
// before the plan fast-apply was retired, when the fast-apply and the
// worklist deploy path both produced them.

// planDeploySpec sizes one whole-bundle deploy comparison.
type planDeploySpec struct {
	// Components is the approximate population size; it is rounded to
	// whole producer→relay→consumers groups (default 100).
	Components int
	// FanOut is the number of consumers per relay topic, 1..9 (default 3).
	FanOut int
	// Seed drives the simulated kernel (default 1).
	Seed int64
	// NumCPUs for the simulated kernel (default 4).
	NumCPUs int
}

func (s *planDeploySpec) applyDefaults() {
	if s.Components <= 0 {
		s.Components = 100
	}
	if s.FanOut <= 0 {
		s.FanOut = 3
	}
	if s.FanOut > 9 {
		s.FanOut = 9
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.NumCPUs <= 0 {
		s.NumCPUs = 4
	}
}

// planDeployStats reports one deploy of the population both ways.
type planDeployStats struct {
	// Batch is the batched DeployAll run.
	Batch planDeployRun
	// StateMatch confirms the per-descriptor loop converged to the same
	// final states (its event interleaving legitimately differs).
	StateMatch bool
}

// buildPlanPopulation renders a feasible composition DAG: producer →
// relay → FanOut consumers per group, every group admitted at full
// contract, so the whole batch activates at mode 0. Unlike the churn
// population there is no over-budget heavy tail.
func buildPlanPopulation(spec planDeploySpec) ([]*descriptor.Component, error) {
	groups := spec.Components / (spec.FanOut + 2)
	if groups < 1 {
		groups = 1
	}
	if groups > 999 {
		groups = 999
	}
	var descs []*descriptor.Component
	add := func(name, src string) error {
		c, err := descriptor.Parse(src)
		if err != nil {
			return fmt.Errorf("plan descriptor %s: %w", name, err)
		}
		descs = append(descs, c)
		return nil
	}
	for g := 0; g < groups; g++ {
		cpu := g % spec.NumCPUs
		tg := fmt.Sprintf("t%03d", g)
		ug := fmt.Sprintf("u%03d", g)
		pn := fmt.Sprintf("p%03d", g)
		rn := fmt.Sprintf("r%03d", g)
		if err := add(pn, churnXML(pn, cpu, 0.0005, nil, []string{tg})); err != nil {
			return nil, err
		}
		if err := add(rn, churnXML(rn, cpu, 0.0005, []string{tg}, []string{ug})); err != nil {
			return nil, err
		}
		for f := 0; f < spec.FanOut; f++ {
			cn := fmt.Sprintf("c%03dx%d", g, f)
			if err := add(cn, churnXML(cn, cpu, 0.0005, []string{ug}, nil)); err != nil {
				return nil, err
			}
		}
	}
	return descs, nil
}

// planDeployRun is one deploy of the population on a fresh system.
type planDeployRun struct {
	traceDigest string
	obsDigest   string
	stateDigest string
}

func runPlanDeployOnce(spec planDeploySpec, descs []*descriptor.Component, perDescriptor bool) (planDeployRun, error) {
	fw := osgi.NewFramework()
	timing := rtos.TimingModel{}
	k := rtos.NewKernel(rtos.Config{NumCPUs: spec.NumCPUs, Timing: &timing, Seed: uint64(spec.Seed)})
	d, err := New(fw, k, Options{})
	if err != nil {
		return planDeployRun{}, err
	}
	defer d.Close()

	if perDescriptor {
		// Deploy in lexicographic name order — the order bundle adoption
		// reads resources, which fronts the consumers (c…) before the
		// producers (p…) and relays (r…), so the waiting set builds up
		// and every late provider triggers cascade rounds. This is what
		// the legacy one-deploy-per-descriptor treatment actually paid.
		ordered := append([]*descriptor.Component(nil), descs...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
		for _, c := range ordered {
			if err := d.Deploy(c); err != nil {
				return planDeployRun{}, fmt.Errorf("plan deploy %s: %w", c.Name, err)
			}
		}
	} else {
		d.DeployAll(descs)
	}

	th := sha256.New()
	for _, ev := range d.Events() {
		fmt.Fprintf(th, "%d|%s|%v|%v|%s\n", int64(ev.At), ev.Component, ev.From, ev.To, ev.Reason)
	}
	sh := sha256.New()
	for _, info := range d.Components() {
		fmt.Fprintf(sh, "%s|%v|%v|%s|", info.Name, info.State, info.Revoked, info.LastReason)
		keys := make([]string, 0, len(info.Bindings))
		for k := range info.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(sh, "%s->%s,", k, info.Bindings[k])
		}
		sh.Write([]byte("\n"))
	}
	return planDeployRun{
		traceDigest: hex.EncodeToString(th.Sum(nil)),
		obsDigest:   d.Obs().Digest(),
		stateDigest: hex.EncodeToString(sh.Sum(nil)),
	}, nil
}

// runPlanDeploy deploys the same population both ways on fresh systems
// and compares their final states.
func runPlanDeploy(spec planDeploySpec) (planDeployStats, error) {
	spec.applyDefaults()
	descs, err := buildPlanPopulation(spec)
	if err != nil {
		return planDeployStats{}, err
	}
	perDesc, err := runPlanDeployOnce(spec, descs, true)
	if err != nil {
		return planDeployStats{}, err
	}
	batch, err := runPlanDeployOnce(spec, descs, false)
	if err != nil {
		return planDeployStats{}, err
	}
	return planDeployStats{
		Batch:      batch,
		StateMatch: perDesc.stateDigest == batch.stateDigest,
	}, nil
}

// The edgecluster example's bundles, grouped per node exactly as its
// console script deploys them. The XML mirrors examples/edgecluster —
// the canonical "real application" bundle set — so the batched deploy is
// pinned on descriptors that were not written for it: pinned CPUs,
// multi-mode contracts, and an aggregator whose inports are remote in
// the example and therefore stay unsatisfied leftovers here.
var edgeclusterBundles = map[string][]string{
	"n0": {`<component name="agg" desc="feed aggregator" type="periodic" cpuusage="0.35">
  <implementation bincode="edge.Agg"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <inport name="c1" interface="RTAI.SHM" type="Integer" size="4"/>
  <inport name="c2" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`},
	"n1": {`<component name="bts1" desc="cell radio 1" type="periodic" cpuusage="0.25">
  <implementation bincode="edge.BTS"/>
  <periodictask frequence="200" runoncup="0" priority="3"/>
  <outport name="c1" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`,
		`<component name="codec1" desc="transcoder" type="periodic" cpuusage="0.45">
  <implementation bincode="edge.Codec"/>
  <periodictask frequence="50" runoncup="0" priority="6"/>
</component>`},
	"n2": {`<component name="bts2" desc="cell radio 2" type="periodic" cpuusage="0.25">
  <implementation bincode="edge.BTS"/>
  <periodictask frequence="200" runoncup="0" priority="3"/>
  <outport name="c2" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`,
		`<component name="codec2" desc="transcoder" type="periodic" cpuusage="0.45">
  <implementation bincode="edge.Codec"/>
  <periodictask frequence="50" runoncup="0" priority="6"/>
</component>`},
	"n3": {`<component name="bts3" desc="cell radio 3" type="periodic" cpuusage="0.30">
  <implementation bincode="edge.BTS"/>
  <periodictask frequence="200" runoncup="0" priority="3"/>
  <outport name="c3" interface="RTAI.SHM" type="Integer" size="4"/>
  <mode name="eco" frequence="50" cpuusage="0.08"/>
</component>`,
		`<component name="bill" desc="billing collector" type="periodic" cpuusage="0.45">
  <implementation bincode="edge.Bill"/>
  <periodictask frequence="50" runoncup="0" priority="5"/>
</component>`},
}

// edgeclusterDigests are each node bundle's batched-deploy digests
// (event trace, obs stream, final states), recorded before the plan
// fast-apply was retired; the fast-apply and the worklist deploy path
// both produced them.
var edgeclusterDigests = map[string][3]string{
	"n0": {"731b10e883b845292afd2ae5c39618b99b2351616ad67a0c0098c805ca3ea8ec",
		"210c38c068938305027d52c8e0aedec2bf14d4caccdd366468cbbb0ef12c76dd",
		"c261bf8b5f200778eea926f831592e084b8effbf55200a3bd839ddc24f8f74ef"},
	"n1": {"6d45d32dd0a3d7d6355d70707398b1efe1c2ff4d94955a634a583cabc9188951",
		"8d54ccf2c3116fe6ea4365e36b0fcfcf9725e956322f92b59c0ad72f79039121",
		"1534e21fe39b253d228f345e1113e5432714b43faaafb522375597524a2e5430"},
	"n2": {"46f3365242027d80d5dc04ee0571a537a620a60694ef2248a8546aafbf8cfc48",
		"d05a0e3cff7256c736053059bf36e3d15f3bcb0967eb6da6e1013f3707fb89a9",
		"c5788fb4f32cad307ef435b6ccb61465e36754bc0e4d2ac3f41b9bdd591146c7"},
	"n3": {"34e5670dcb3601189a141e5e7fda0558c3c408e570c1858dad0be8da3298b38b",
		"f526fdecd56826fdb16aed735f070d59d6a251c3a2c8f52e722085e9141492ba",
		"17bccfd3eb42b76a0731c4ff131c6660df68a7e9f3d9a84b8573a7648dd905b4"},
}

// TestEdgeclusterBundlePlanDigest compiles each edgecluster node bundle
// (no typed conflict may reject it), deploys it with DeployAll, and pins
// the event trace, obs stream and final states to edgeclusterDigests —
// the CI plan smoke step.
func TestEdgeclusterBundlePlanDigest(t *testing.T) {
	for node, xmls := range edgeclusterBundles {
		t.Run(node, func(t *testing.T) {
			var descs []*descriptor.Component
			for _, x := range xmls {
				c, err := descriptor.Parse(x)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				descs = append(descs, c)
			}
			spec := planDeploySpec{Components: len(descs), Seed: 21, NumCPUs: 4}
			spec.applyDefaults()
			if _, err := newPlanRig(t).d.CompilePlan(descs); err != nil {
				t.Fatalf("compile: %v", err)
			}
			got, err := runPlanDeployOnce(spec, descs, false)
			if err != nil {
				t.Fatalf("deploy: %v", err)
			}
			want := edgeclusterDigests[node]
			for i, d := range []struct{ what, got string }{
				{"event trace", got.traceDigest},
				{"obs stream", got.obsDigest},
				{"final states", got.stateDigest},
			} {
				if d.got != want[i] {
					t.Errorf("%s digest %s, want %s", d.what, d.got, want[i])
				}
			}
		})
	}
}

// TestRunPlanDeployRepsParity pins the batched deploy of a 40-component
// composition DAG on repeated runs: every rep must reproduce the
// recorded digests and converge the per-descriptor loop to the same
// states.
func TestRunPlanDeployRepsParity(t *testing.T) {
	const (
		wantTrace = "e4450d16cbc9c2521061021d4bb6eee7fcd994c4c12c19276d4889af6aa0fed2"
		wantObs   = "8aca646d6089228463e305ca0354afca822879103a044abef11c062df6a9c707"
		wantState = "090b0471803de764dffbbb17ac33c25eb7e361f4ea97866115c7e01446236bd8"
	)
	for rep := 0; rep < 2; rep++ {
		st, err := runPlanDeploy(planDeploySpec{Components: 40, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, check := range []struct{ what, got, want string }{
			{"event trace", st.Batch.traceDigest, wantTrace},
			{"obs stream", st.Batch.obsDigest, wantObs},
			{"final states", st.Batch.stateDigest, wantState},
		} {
			if check.got != check.want {
				t.Errorf("rep %d: %s digest %s, want %s", rep, check.what, check.got, check.want)
			}
		}
		if !st.StateMatch {
			t.Errorf("rep %d: per-descriptor loop converged to different states", rep)
		}
	}
}

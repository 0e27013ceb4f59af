package console

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/descriptor"
	"repro/internal/rtos"
)

const clusterProdXML = `<component name="prod" desc="producer" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.ClProd"/>
  <periodictask frequence="500" runoncup="0" priority="3"/>
  <outport name="feed" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`

const clusterConsXML = `<component name="cons" desc="consumer" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.ClCons"/>
  <periodictask frequence="250" runoncup="0" priority="4"/>
  <inport name="feed" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`

func newClusterConsole(t *testing.T, nodes int) (*Console, *strings.Builder) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Nodes: nodes, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.RegisterBody("demo.ClProd", func(d *descriptor.Component) rtos.Body {
		topic := d.OutPorts[0].Name
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(topic); err == nil {
				_ = shm.Set(int(j.Index%4), int64(j.Index))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterBody("demo.ClCons", func(*descriptor.Component) rtos.Body {
		return func(*rtos.JobContext) {}
	}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	c := NewCluster(cl, &out)
	c.ReadFile = func(path string) ([]byte, error) {
		switch path {
		case "prod.xml":
			return []byte(clusterProdXML), nil
		case "cons.xml":
			return []byte(clusterConsXML), nil
		}
		return nil, fmt.Errorf("no such file %q", path)
	}
	return c, &out
}

func TestClusterSessionNodesAndLinks(t *testing.T) {
	c, out := newClusterConsole(t, 3)
	script := `
deploy prod.xml n0
deploy cons.xml n1
run 40ms
nodes
links
`
	if err := c.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"deployed prod.xml on n0",
		"deployed cons.xml on n1",
		"leader n0",
		"placed cons -> n1",
		"placed prod -> n0",
		"converged true",
		"all 3 links up",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("session output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "error:") {
		t.Fatalf("session reported an error:\n%s", got)
	}
}

func TestClusterSessionMigrateAndRemove(t *testing.T) {
	c, out := newClusterConsole(t, 3)
	script := `
deploy prod.xml n0
run 20ms
migrate prod n2
run 20ms
nodes
remove prod
nodes
`
	if err := c.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "prod -> n2") {
		t.Fatalf("migrate not reported:\n%s", got)
	}
	if !strings.Contains(got, "placed prod -> n2") {
		t.Fatalf("catalog did not follow the migration:\n%s", got)
	}
	if !strings.Contains(got, "prod removed from the cluster") {
		t.Fatalf("remove not reported:\n%s", got)
	}
}

// Single-node diagnostics must refuse politely in cluster mode instead
// of crashing, and unknown node ids must be rejected.
func TestClusterSessionGuards(t *testing.T) {
	c, out := newClusterConsole(t, 2)
	script := `
gantt 10ms
migrate ghost n1
migrate ghost n9
deploy prod.xml n5
`
	if err := c.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"needs a single-node system",
		"not placed",
		`no node "n9"`,
		`no node "n5"`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing guard %q:\n%s", want, got)
		}
	}
}

// Cluster mode serves spans/why/watch/metrics/flightrec from the
// federated planes; why stitches across the network (the chain behind
// a provisioned component reaches back to the cluster control plane)
// and names may be node-qualified.
func TestClusterSessionFederatedObservability(t *testing.T) {
	c, out := newClusterConsole(t, 3)
	script := `
deploy prod.xml n0
deploy cons.xml n1
run 40ms
spans n0 5
spans 3
why cons
why n1/cons
why node1/cons
watch 20ms n1
metrics
flightrec
why n9/cons
`
	if err := c.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"spans shown on n0",
		"spans shown on cluster",
		"[n1]",      // why cons resolves to the placement node
		"[cluster]", // ... and stitches across the provision hop
		"watched 20ms",
		"level sampled", // cluster snapshot header line
		"cluster latency (merged):",
		"no flight dumps",
		`no plane "n9"`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("federated observability output missing %q:\n%s", want, got)
		}
	}
}

// The component table renders bindings in explicit port-name order.
func TestListBindingsSorted(t *testing.T) {
	got := formatBindings(map[string]string{"zz": "a", "aa": "b", "mm": "c"})
	if got != "aa<-b mm<-c zz<-a" {
		t.Fatalf("bindings not name-sorted: %q", got)
	}
	if formatBindings(nil) != "-" {
		t.Fatalf("empty bindings should render as -")
	}
}

const clusterStochXML = `<component name="stoch" type="periodic" cpuusage="0.3">
  <implementation bincode="demo.ClCons"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,0.02)" p="0.97"/>
  <mode name="eco" frequence="250" cpuusage="0.15"/>
  <property name="drcom.exectime.us" type="Integer" value="300"/>
</component>`

// TestClusterSessionAdmit pins the node-qualified admit: it asks an
// explicit node's resolver chain against its view (the stochastic
// component already there puts prod under Monte-Carlo admission), and a
// bare file is refused.
func TestClusterSessionAdmit(t *testing.T) {
	c, out := newClusterConsole(t, 3)
	prev := c.ReadFile
	c.ReadFile = func(path string) ([]byte, error) {
		if path == "stoch.xml" {
			return []byte(clusterStochXML), nil
		}
		return prev(path)
	}
	if err := c.Run(strings.NewReader(`
deploy stoch.xml n1
run 300ms
admit n1 prod.xml -dry
admit prod.xml -dry
`)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"[n1] admit (dry run): 1 components, 1 admitted, 0 denied",
		"[n1]   prod     admit mode full: all 1 resolvers admitted prod",
		"[n1]            verdict: cpu0 P(load≤1.000)=1.000 meets p=0.970 (512 trials)",
		"error: usage: admit <node> <file.xml> [more.xml ...] -dry",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

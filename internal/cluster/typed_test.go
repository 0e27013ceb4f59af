package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
)

const typedProdXML = `<component name="tprod" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Prod"/>
  <periodictask frequence="1000" runoncup="0" priority="2"/>
  <outport name="feed" interface="RTAI.SHM" type="Integer" size="4" version="1.2" datatype="struct{val:int32[3],seq:int32}"/>
</component>`

// typedConsXML is a consumer of feed accepting the given version range
// and datatype.
func typedConsXML(name, rng, dt string) string {
	return `<component name="` + name + `" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Cons"/>
  <periodictask frequence="500" runoncup="0" priority="3"/>
  <inport name="feed" interface="RTAI.SHM" type="Integer" size="4" version="` + rng + `" datatype="` + dt + `"/>
</component>`
}

// TestTypedRemoteProvision sends an annotated provision over the wire: a
// typed provider on n0 and three consumers on n1. The one whose range and
// datatype accept the provider binds to tprod@n0; the other two stay
// UNSATISFIED, and the remote provision fails them on the same layer and
// with the same reason as the provider's own parsed port does locally.
// The installed provision is compiled: matching it allocates nothing.
func TestTypedRemoteProvision(t *testing.T) {
	c := mkCluster(t, Config{Nodes: 2, Seed: 5})
	if err := c.DeployXMLOn(0, typedProdXML); err != nil {
		t.Fatal(err)
	}
	consumers := map[string]string{
		"tok":  typedConsXML("tok", "[1.0,2.0)", "struct{seq:int32}"),
		"tver": typedConsXML("tver", "[2.0,3.0)", "struct{seq:int32}"),
		"tdt":  typedConsXML("tdt", "1.0", "struct{seq:int32,ts:int32}"),
	}
	for _, name := range []string{"tdt", "tok", "tver"} {
		if err := c.DeployXMLOn(1, consumers[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	info, _ := c.Node(1).DRCR().Component("tok")
	if info.State != core.Active || info.Bindings["feed"] != "tprod@n0" {
		t.Fatalf("accepting consumer is %v bound to %q, want ACTIVE on tprod@n0", info.State, info.Bindings["feed"])
	}

	prod, err := descriptor.Parse(typedProdXML)
	if err != nil {
		t.Fatal(err)
	}
	local := prod.OutPorts[0]
	remote, ok := c.Node(1).installed["feed|tprod@n0"]
	if !ok {
		t.Fatal("n1 has not installed the provision feed|tprod@n0")
	}
	if remote.Version != local.Version || remote.DataType != local.DataType {
		t.Fatalf("provision arrived as version %q datatype %q, sent %q %q", remote.Version, remote.DataType, local.Version, local.DataType)
	}
	for _, name := range []string{"tver", "tdt"} {
		if info, _ := c.Node(1).DRCR().Component(name); info.State != core.Unsatisfied {
			t.Errorf("%s is %v, want UNSATISFIED", name, info.State)
		}
		cons, err := descriptor.Parse(consumers[name])
		if err != nil {
			t.Fatal(err)
		}
		in := cons.InPorts[0]
		wantKind, wantWhy := local.ExplainTypedMismatch(in)
		if wantKind == "" {
			t.Fatalf("%s: the local pair matches", name)
		}
		if kind, why := remote.ExplainTypedMismatch(in); kind != wantKind || why != wantWhy {
			t.Errorf("%s: remote provision fails (%q, %q), the local pair (%q, %q)", name, kind, why, wantKind, wantWhy)
		}
		// The node's batch check reports the same conflict against the
		// installed remote provision.
		_, err = c.Node(1).DRCR().CompilePlan([]*descriptor.Component{cons})
		var rej *core.PlanRejectError
		if !errors.As(err, &rej) || len(rej.Conflicts) != 1 {
			t.Fatalf("%s: CompilePlan = %v, want one typed conflict", name, err)
		}
		if got := rej.Conflicts[0]; got.Provider != "tprod@n0" || got.Kind != wantKind || got.Reason != wantWhy {
			t.Errorf("%s: conflict %+v, want provider tprod@n0 kind %q reason %q", name, got, wantKind, wantWhy)
		}
		if allocs := testing.AllocsPerRun(100, func() { remote.CanSatisfy(in) }); allocs != 0 {
			t.Errorf("%s: matching the installed provision makes %.0f allocations, want 0", name, allocs)
		}
	}
}

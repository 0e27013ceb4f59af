package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/descriptor"
)

// xml builds a minimal periodic descriptor with SHM ports named after
// topics, the same shape the core differential tests use.
func xml(name string, cpu int, usage float64, inports, outports []string, extra string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<component name=%q type="periodic" cpuusage="%g">`+"\n", name, usage)
	fmt.Fprintf(&b, `  <implementation bincode="plan.Body"/>`+"\n")
	fmt.Fprintf(&b, `  <periodictask frequence="100" runoncup="%d" priority="5"/>`+"\n", cpu)
	for _, p := range inports {
		fmt.Fprintf(&b, `  <inport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", p)
	}
	for _, p := range outports {
		fmt.Fprintf(&b, `  <outport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", p)
	}
	b.WriteString(extra)
	b.WriteString(`</component>`)
	return b.String()
}

func mustParse(t *testing.T, src string) *descriptor.Component {
	t.Helper()
	c, err := descriptor.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func env2() Env {
	return Env{NumCPUs: 2}
}

// edgeRows renders the wiring table as consumer.inport<-provider rows,
// external providers marked with a trailing "*".
func edgeRows(p *Plan) string {
	var rows []string
	for _, e := range p.Edges {
		row := fmt.Sprintf("%s.%s<-%s", e.Consumer, e.Inport, e.Provider)
		if e.External {
			row += "*"
		}
		rows = append(rows, row)
	}
	return strings.Join(rows, " ")
}

// TestCompileScheduleDiamond pins the wiring table of a diamond DAG:
// src feeds mid1/mid2, sink joins them. Rows come in consumer/inport
// order with every internal provider resolved.
func TestCompileScheduleDiamond(t *testing.T) {
	descs := []*descriptor.Component{
		mustParse(t, xml("src", 0, 0.01, nil, []string{"ta"}, "")),
		mustParse(t, xml("mid1", 0, 0.01, []string{"ta"}, []string{"tb"}, "")),
		mustParse(t, xml("mid2", 1, 0.01, []string{"ta"}, []string{"tc"}, "")),
		mustParse(t, xml("sink", 1, 0.01, []string{"tb", "tc"}, nil, "")),
	}
	p, err := Compile(descs, env2())
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback != "" {
		t.Fatalf("fallback = %q", p.Fallback)
	}
	want := "mid1.ta<-src mid2.ta<-src sink.tb<-mid1 sink.tc<-mid2"
	if got := edgeRows(p); got != want {
		t.Fatalf("edges = %s", got)
	}
}

// TestCompileLeftoverAndExternal: an orphan consumer's inport stays
// unbound in the wiring table, and an external provider satisfying
// another member appears as an external edge.
func TestCompileLeftoverAndExternal(t *testing.T) {
	descs := []*descriptor.Component{
		mustParse(t, xml("cons", 0, 0.01, []string{"base"}, nil, "")),
		mustParse(t, xml("orph", 1, 0.01, []string{"nowhr"}, nil, "")),
	}
	ext := mustParse(t, xml("ext", 0, 0.01, nil, []string{"base"}, ""))
	env := env2()
	env.Providers = []ExtProvider{{Origin: "ext", Port: ext.OutPorts[0]}}
	p, err := Compile(descs, env)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := edgeRows(p), "cons.base<-ext* orph.nowhr<-"; got != want {
		t.Fatalf("edges = %s, want %s", got, want)
	}
}

// TestCompileAdmissionDenyFallback: a batch overflowing one CPU's budget
// passes the check with no Fallback. Admission is the resolving
// services' verdict at deploy, not the plan's.
func TestCompileAdmissionDenyFallback(t *testing.T) {
	descs := []*descriptor.Component{
		mustParse(t, xml("h1", 0, 0.6, nil, nil, "")),
		mustParse(t, xml("h2", 0, 0.6, nil, nil, "")),
	}
	p, err := Compile(descs, env2())
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback != "" {
		t.Fatalf("fallback = %q", p.Fallback)
	}
}

// TestCompileDegradedOnlyFallback: a member whose mode 0 lacks a
// provider but whose degraded mode drops that inport passes the check
// with no Fallback; its edge stays unbound and names only the mode that
// requires it.
func TestCompileDegradedOnlyFallback(t *testing.T) {
	eco := `  <mode name="eco" frequence="50" cpuusage="0.01" drops="gap"/>` + "\n"
	descs := []*descriptor.Component{
		mustParse(t, xml("degr", 0, 0.02, []string{"gap"}, nil, eco)),
	}
	p, err := Compile(descs, env2())
	if err != nil {
		t.Fatal(err)
	}
	if p.Fallback != "" {
		t.Fatalf("fallback = %q", p.Fallback)
	}
	if len(p.Edges) != 1 || p.Edges[0].Provider != "" || strings.Join(p.Edges[0].Modes, ",") != descriptor.FullModeName {
		t.Fatalf("edges = %+v, want gap unbound and required in %s only", p.Edges, descriptor.FullModeName)
	}
}

// TestFingerprintTracksProviders: the wiring table tracks external
// providers — one that satisfies a bundle inport binds it, an
// irrelevant one leaves it unbound.
func TestFingerprintTracksProviders(t *testing.T) {
	descs := []*descriptor.Component{mustParse(t, xml("c", 0, 0.01, []string{"base"}, nil, ""))}
	ext := mustParse(t, xml("ext", 0, 0.01, nil, []string{"base"}, ""))
	other := mustParse(t, xml("oth", 0, 0.01, nil, []string{"unrel"}, ""))
	for _, c := range []struct {
		providers []ExtProvider
		want      string
	}{
		{nil, "c.base<-"},
		{[]ExtProvider{{Origin: "ext", Port: ext.OutPorts[0]}}, "c.base<-ext*"},
		{[]ExtProvider{{Origin: "oth", Port: other.OutPorts[0]}}, "c.base<-"},
	} {
		env := env2()
		env.Providers = c.providers
		p, err := Compile(descs, env)
		if err != nil {
			t.Fatal(err)
		}
		if got := edgeRows(p); got != c.want {
			t.Fatalf("providers %+v: edges = %s, want %s", c.providers, got, c.want)
		}
	}
}

// TestCompileDuplicateNameFallback: duplicate names inside one batch
// cannot be planned (the engine keeps first-wins semantics).
func TestCompileDuplicateNameFallback(t *testing.T) {
	src := xml("dup", 0, 0.01, nil, nil, "")
	descs := []*descriptor.Component{mustParse(t, src), mustParse(t, src)}
	p, err := Compile(descs, env2())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Fallback, "duplicate") {
		t.Fatalf("fallback = %q", p.Fallback)
	}
}

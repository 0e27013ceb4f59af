package descriptor

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/manifest"
	"repro/internal/rtos/ipc"
)

// explainOracle is the typed-layer check that re-parses both ports'
// annotation strings on every call: the reference the compiled contracts
// must agree with, kind and reason byte for byte.
func explainOracle(p, in Port) (kind, reason string) {
	if in.Version != "" {
		if p.Version == "" {
			return "version", fmt.Sprintf("consumer requires version %s but provider declares no version", in.Version)
		}
		rng, err := manifest.ParseRange(in.Version)
		if err != nil {
			return "version", fmt.Sprintf("consumer version range %q invalid: %v", in.Version, err)
		}
		ver, err := manifest.ParseVersion(p.Version)
		if err != nil {
			return "version", fmt.Sprintf("provider version %q invalid: %v", p.Version, err)
		}
		if !rng.Contains(ver) {
			return "version", fmt.Sprintf("provider version %s outside required range %s", p.Version, in.Version)
		}
	}
	if in.DataType != "" {
		if p.DataType == "" {
			return "structure", fmt.Sprintf("consumer requires datatype %s but provider declares none", in.DataType)
		}
		req, err := parseDataType(in.DataType)
		if err != nil {
			return "structure", fmt.Sprintf("consumer datatype %q invalid: %v", in.DataType, err)
		}
		prov, err := parseDataType(p.DataType)
		if err != nil {
			return "structure", fmt.Sprintf("provider datatype %q invalid: %v", p.DataType, err)
		}
		if !prov.satisfies(req) {
			return "structure", fmt.Sprintf("provider datatype %s does not structurally satisfy %s", p.DataType, in.DataType)
		}
	}
	return "", ""
}

// canSatisfyOracle is CanSatisfy over explainOracle.
func canSatisfyOracle(p, in Port) bool {
	if p.Direction != Out || in.Direction != In || p.Name != in.Name ||
		p.Interface != in.Interface || p.Type != in.Type || p.Size < in.Size {
		return false
	}
	kind, _ := explainOracle(p, in)
	return kind == ""
}

// contractGen generates version, range and datatype annotations from a
// seed: open and closed range ends, qualifiers, nested arrays and
// structs over a small field alphabet (so width subtyping meets both
// shared and missing fields), nesting at the depth limit, and a share of
// malformed text.
type contractGen struct{ r *rand.Rand }

var (
	genQualifiers = []string{"a", "b", "beta", "rc-1", "x_y", "RC2"}
	genFields     = []string{"a", "b", "seq", "val"}
	genJunk       = []string{"fish", "1.x", "1.2.3.", "-1", "[1.0", "[2.0,1.0)", "[1.0,1.0)", "1.0.0.a:b", "1.0.0.a,b", "int64", "int32[0]", "struct{}", "struct{a:int32,a:int32}", "int32 x", ""}
)

func (g contractGen) version() string {
	s := fmt.Sprint(g.r.Intn(4))
	if n := g.r.Intn(4); n > 0 {
		s += fmt.Sprintf(".%d", g.r.Intn(3))
		if n > 1 {
			s += fmt.Sprintf(".%d", g.r.Intn(3))
			if n > 2 {
				s += "." + genQualifiers[g.r.Intn(len(genQualifiers))]
			}
		}
	}
	return s
}

func (g contractGen) versionRange() string {
	if g.r.Intn(3) == 0 {
		return g.version()
	}
	lo, hi := g.version(), g.version()
	if manifest.MustParseVersion(lo).Compare(manifest.MustParseVersion(hi)) > 0 {
		lo, hi = hi, lo
	}
	return string("[("[g.r.Intn(2)]) + lo + "," + hi + string("])"[g.r.Intn(2)])
}

// dataType returns a datatype over one primitive, so it flattens.
func (g contractGen) dataType(prim string, depth int) string {
	var s string
	switch k := g.r.Intn(5); {
	case depth <= 0 || k < 2:
		s = prim
	case k < 4:
		n := 1 + g.r.Intn(len(genFields))
		fields := g.r.Perm(len(genFields))[:n]
		parts := make([]string, n)
		for i, f := range fields {
			parts[i] = genFields[f] + ":" + g.dataType(prim, depth-1)
		}
		s = "struct{" + strings.Join(parts, ",") + "}"
	default:
		s = g.dataType(prim, depth-1)
	}
	for g.r.Intn(3) == 0 {
		s += fmt.Sprintf("[%d]", 1+g.r.Intn(3))
	}
	return s
}

// deep nests n struct layers around prim: around the nesting limit.
func deep(prim string, n int) string {
	return strings.Repeat("struct{a:", n) + prim + strings.Repeat("}", n)
}

func (g contractGen) annotation(gen func() string) string {
	switch g.r.Intn(10) {
	case 0:
		return ""
	case 1:
		return genJunk[g.r.Intn(len(genJunk))]
	case 2:
		return " " + gen() + " " // non-canonical spacing
	}
	return gen()
}

// typedPortDoc renders a one-port descriptor for a generated port; the
// port's size is the datatype's flattened count when it flattens.
func typedPortDoc(dir Direction, ver, dt string) string {
	size := 64
	if t, err := parseDataType(dt); err == nil {
		if _, n, err := t.flatten(); err == nil && n > 0 && n <= 1<<20 {
			size = n
		}
	}
	attrs := ""
	if ver != "" {
		attrs += fmt.Sprintf(" version=%q", ver)
	}
	if dt != "" {
		attrs += fmt.Sprintf(" datatype=%q", dt)
	}
	return fmt.Sprintf(`<component name="g" type="aperiodic"><implementation bincode="g.G"/>
  <%v name="p" interface="RTAI.SHM" type="Integer" size="%d"%s/></component>`, dir, size, attrs)
}

// TestTypedContractDifferential holds CanSatisfy and ExplainTypedMismatch
// to the re-parsing oracle on seeded generated annotations: over parsed
// (compiled) ports, over hand-built ports with the raw strings, over the
// same raw ports compiled by Port.Compile, and over misdirected pairs.
// Parsed ports must also judge every pair on the same layer as their raw
// sources do.
func TestTypedContractDifferential(t *testing.T) {
	g := contractGen{rand.New(rand.NewSource(32))}
	dtGen := func() string {
		switch g.r.Intn(12) {
		case 0:
			return deep("int32", maxDTDepth-1+g.r.Intn(3))
		case 1:
			return deep("int32", 2) + "[1]"
		}
		return g.dataType("int32", 3)
	}
	type sample struct {
		raw    Port // hand-built from the generated strings
		parsed Port // from Parse, when it accepts the raw strings
		ok     bool
	}
	// gen generates a port; a consumer is derived from the provider's
	// annotations half the time, so that matches are common.
	gen := func(dir Direction, from Port) sample {
		var s sample
		ver := g.annotation(g.version)
		if dir == In {
			ver = g.annotation(g.versionRange)
		}
		dt := g.annotation(dtGen)
		if dir == In && g.r.Intn(2) == 0 {
			if g.r.Intn(4) > 0 {
				ver = from.Version
			}
			if g.r.Intn(4) > 0 {
				dt = from.DataType
			}
		}
		s.raw = Port{Name: "p", Interface: SHM, Type: ipc.Integer, Size: 64, Direction: dir, Version: ver, DataType: dt}
		if c, err := Parse(typedPortDoc(dir, strings.TrimSpace(ver), strings.TrimSpace(dt))); err == nil {
			s.ok = true
			if dir == Out {
				s.parsed = c.OutPorts[0]
			} else {
				s.parsed = c.InPorts[0]
			}
			if s.parsed.c == nil && (s.parsed.Version != "" || s.parsed.DataType != "") {
				t.Fatalf("parsed annotated port %+v carries no contract", s.parsed)
			}
		}
		return s
	}
	check := func(what string, p, in Port) {
		t.Helper()
		gk, gr := p.ExplainTypedMismatch(in)
		wk, wr := explainOracle(p, in)
		if gk != wk || gr != wr {
			t.Fatalf("%s: provider %+v consumer %+v\nExplainTypedMismatch = (%q, %q)\noracle               = (%q, %q)", what, p, in, gk, gr, wk, wr)
		}
		if got, want := p.CanSatisfy(in), canSatisfyOracle(p, in); got != want {
			t.Fatalf("%s: provider %+v consumer %+v: CanSatisfy = %v, oracle %v", what, p, in, got, want)
		}
	}
	var parsedPairs, fails int
	for i := 0; i < 4000; i++ {
		prov := gen(Out, Port{})
		cons := gen(In, prov.raw)
		check("raw", prov.raw, cons.raw)
		check("compiled raw", prov.raw.Compile(), cons.raw.Compile())
		check("compiled provider", prov.raw.Compile(), cons.raw)
		check("compiled consumer", prov.raw, cons.raw.Compile())
		check("misdirected", cons.raw.Compile(), prov.raw.Compile())
		if !prov.ok || !cons.ok {
			continue
		}
		parsedPairs++
		check("parsed", prov.parsed, cons.parsed)
		check("parsed misdirected", cons.parsed, prov.parsed)
		pk, _ := prov.parsed.ExplainTypedMismatch(cons.parsed)
		rk, _ := explainOracle(prov.raw, cons.raw)
		if pk != rk {
			t.Fatalf("parsed pair %+v / %+v fails on %q, its raw sources on %q", prov.parsed, cons.parsed, pk, rk)
		}
		if pk != "" {
			fails++
		}
	}
	t.Logf("%d parsed pairs, %d typed mismatches among them", parsedPairs, fails)
	if parsedPairs < 1000 || fails < parsedPairs/10 || fails > parsedPairs*9/10 {
		t.Fatalf("generator covers too little: %d parsed pairs, %d mismatches", parsedPairs, fails)
	}
}

// typedPair parses a bundle-churn-shaped provider and consumer pair.
func typedPair(tb testing.TB) (prov, cons Port) {
	tb.Helper()
	c, err := Parse(churnDescriptor(1))
	if err != nil {
		tb.Fatal(err)
	}
	return c.OutPorts[0], c.InPorts[0]
}

// TestCanSatisfyTypedAllocFree pins that a match on compiled annotated
// ports parses nothing: it allocates nothing, matching or not.
func TestCanSatisfyTypedAllocFree(t *testing.T) {
	prov, cons := typedPair(t)
	cons.Name = prov.Name
	if !prov.CanSatisfy(cons) {
		t.Fatalf("%+v does not satisfy %+v", prov, cons)
	}
	c2, err := Parse(strings.Replace(churnDescriptor(1), `version="[2.0.0,3.0.0)"`, `version="[3.0.0,4.0.0)"`, 1))
	if err != nil {
		t.Fatal(err)
	}
	miss := c2.InPorts[0]
	miss.Name = prov.Name
	if prov.CanSatisfy(miss) {
		t.Fatalf("%+v satisfies %+v", prov, miss)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !prov.CanSatisfy(cons) || prov.CanSatisfy(miss) {
			t.Fatal("match changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("CanSatisfy on annotated ports makes %.1f allocations per call pair, want 0", allocs)
	}
}

func BenchmarkCanSatisfyTyped(b *testing.B) {
	prov, cons := typedPair(b)
	cons.Name = prov.Name
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !prov.CanSatisfy(cons) {
			b.Fatal("no match")
		}
	}
}

// TestCanonicalAnnotationKeepsSource pins that an annotation already in
// canonical form is kept as a substring of the source, not rendered
// again, and that a non-canonical one is rendered.
func TestCanonicalAnnotationKeepsSource(t *testing.T) {
	src := churnDescriptor(7)
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		base := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		return p >= base && p < base+uintptr(len(src))
	}
	for _, s := range []string{c.OutPorts[0].Version, c.OutPorts[0].DataType, c.InPorts[0].Version, c.InPorts[0].DataType} {
		if !in(s) {
			t.Errorf("canonical annotation %q was copied out of the source", s)
		}
	}
	c, err = Parse(strings.Replace(src, `version="2.1.0"`, `version="2.1"`, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.OutPorts[0].Version; got != "2.1.0" {
		t.Fatalf("non-canonical version rendered as %q, want 2.1.0", got)
	}
}

// churnDescriptor renders component i shaped like perfbench's
// bundle-churn platform consumers: one versioned, structurally typed
// outport and one such inport.
func churnDescriptor(i int) string {
	return fmt.Sprintf(`<component name="c%04d" type="periodic" cpuusage="0.0005">
  <implementation bincode="pb.Cons"/>
  <periodictask frequence="100" runoncup="%d" priority="4"/>
  <outport name="o%04d" interface="RTAI.SHM" type="Integer" size="2" version="2.1.0" datatype="struct{seq:int32,val:int32}"/>
  <inport name="q%04d" interface="RTAI.SHM" type="Integer" size="2" version="[2.0.0,3.0.0)" datatype="struct{seq:int32,val:int32}"/>
  <property name="drcom.exectime.us" type="Integer" value="5"/>
</component>`, i%10000, i%4, i%10000, i%10000)
}

// TestParseTypedRetainedHeap measures the heap a parsed
// bundle-churn-shaped Component (two annotated ports) keeps alive while
// its source is held. Canonical annotations share the source, so the
// cost over an untyped Component is each port's compiled contract and
// its datatype's struct node and field array, against 494 B for the
// untyped storm shape of TestParseRetainedHeap, and 584 B when each
// annotation was kept as a rendered string only. Measured at 872 B per
// descriptor (go1.24, linux/amd64); the bound leaves ~10% headroom.
func TestParseTypedRetainedHeap(t *testing.T) {
	const n = 4000
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = churnDescriptor(i)
	}
	comps := make([]*Component, n)
	before := liveHeap()
	for i, src := range srcs {
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("churn descriptor %d: %v", i, err)
		}
		comps[i] = c
	}
	after := liveHeap()
	perParse := float64(after-before) / n
	runtime.KeepAlive(srcs)
	runtime.KeepAlive(comps)
	t.Logf("retained %.0f B per parsed churn descriptor", perParse)
	if perParse > 960 {
		t.Fatalf("a parsed churn descriptor retains %.0f B, want at most 960", perParse)
	}
}

// TestParseRejectsQualifierSeparators pins the OSGi qualifier grammar on
// port versions: a qualifier holding a ':' or ',' would split a cluster
// provision note or a range differently on the receiving side.
func TestParseRejectsQualifierSeparators(t *testing.T) {
	for _, v := range []string{`1.0.0.a:b`, `1.0.0.a,b`, `1.0.0.a b`, `1.0.0.é`} {
		for _, dir := range []Direction{Out, In} {
			_, err := Parse(typedPortDoc(dir, v, ""))
			if err == nil || !strings.Contains(err.Error(), "qualifier") {
				t.Errorf("%v version %q: Parse error %v, want a qualifier rejection", dir, v, err)
			}
		}
	}
	if _, err := Parse(typedPortDoc(Out, "1.0.0.rc_1-b", "")); err != nil {
		t.Errorf("valid qualifier rejected: %v", err)
	}
}

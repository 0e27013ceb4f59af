package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/policy"
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
	return Env{NumCPUs: 2, Bound: 1.0, View: policy.View{NumCPUs: 2}}
}

// TestCompileScheduleDiamond pins the cursor-order semantics on a
// diamond DAG: src feeds mid1/mid2, sink joins them. The worklist
// engine's first round is name-sorted, a consumer named after the
// provider joins the provider's round, one named before it waits for
// the next round — the plan must reproduce exactly that order and the
// first-provider cause chain.
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
	wantSched := []string{"src", "mid1", "mid2", "sink"}
	if got := strings.Join(p.Schedule, ","); got != strings.Join(wantSched, ",") {
		t.Fatalf("schedule = %s", got)
	}
	wantCause := []int{-1, 0, 0, 1}
	for i, c := range p.CauseIdx {
		if c != wantCause[i] {
			t.Fatalf("causeIdx = %v, want %v", p.CauseIdx, wantCause)
		}
	}
	if len(p.Leftovers) != 0 {
		t.Fatalf("leftovers = %v", p.Leftovers)
	}
	// The wiring table: deterministic consumer/inport order, internal
	// providers resolved.
	var rows []string
	for _, e := range p.Edges {
		rows = append(rows, fmt.Sprintf("%s.%s<-%s", e.Consumer, e.Inport, e.Provider))
	}
	want := "mid1.ta<-src mid2.ta<-src sink.tb<-mid1 sink.tc<-mid2"
	if got := strings.Join(rows, " "); got != want {
		t.Fatalf("edges = %s", got)
	}
	// Admission deltas: 0.02 on each CPU.
	if len(p.Deltas) != 2 || p.Deltas[0].CPU != 0 || p.Deltas[1].CPU != 1 {
		t.Fatalf("deltas = %+v", p.Deltas)
	}
}

// TestCompileLeftoverAndExternal: an orphan consumer stays a leftover
// with the engines' missing-inport reason; an external provider
// satisfies another member and appears as an external edge.
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
	if p.Fallback != "" {
		t.Fatalf("fallback = %q", p.Fallback)
	}
	if len(p.Schedule) != 1 || p.Schedule[0] != "cons" {
		t.Fatalf("schedule = %v", p.Schedule)
	}
	if len(p.Leftovers) != 1 || p.Leftovers[0].Name != "orph" || p.Leftovers[0].Missing != "nowhr" {
		t.Fatalf("leftovers = %+v", p.Leftovers)
	}
	var extEdge *Edge
	for i := range p.Edges {
		if p.Edges[i].Consumer == "cons" {
			extEdge = &p.Edges[i]
		}
	}
	if extEdge == nil || extEdge.Provider != "ext" || !extEdge.External {
		t.Fatalf("external edge = %+v", extEdge)
	}
}

// TestCompileAdmissionDenyFallback: a schedule overflowing one CPU's
// budget must compile with Fallback set (the event path runs the real
// deny), never reject.
func TestCompileAdmissionDenyFallback(t *testing.T) {
	descs := []*descriptor.Component{
		mustParse(t, xml("h1", 0, 0.6, nil, nil, "")),
		mustParse(t, xml("h2", 0, 0.6, nil, nil, "")),
	}
	p, err := Compile(descs, env2())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Fallback, "denied at mode 0") {
		t.Fatalf("fallback = %q", p.Fallback)
	}
}

// TestCompileDegradedOnlyFallback: a member whose mode 0 is infeasible
// but whose degraded mode drops the missing inport routes the plan to
// the event path, where downgrade-before-deny runs for real.
func TestCompileDegradedOnlyFallback(t *testing.T) {
	eco := `  <mode name="eco" frequence="50" cpuusage="0.01" drops="gap"/>` + "\n"
	descs := []*descriptor.Component{
		mustParse(t, xml("degr", 0, 0.02, []string{"gap"}, nil, eco)),
	}
	p, err := Compile(descs, env2())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Fallback, "degraded mode") {
		t.Fatalf("fallback = %q", p.Fallback)
	}
}

// TestCompileRungDeltas: per-rung budget sums clamp members with fewer
// declared modes to their cheapest rung.
func TestCompileRungDeltas(t *testing.T) {
	eco := `  <mode name="eco" frequence="50" cpuusage="0.04"/>` + "\n"
	descs := []*descriptor.Component{
		mustParse(t, xml("flat", 0, 0.10, nil, nil, "")),
		mustParse(t, xml("lad", 0, 0.20, nil, nil, eco)),
	}
	p, err := Compile(descs, env2())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.RungDeltas) != 2 {
		t.Fatalf("rungs = %d", len(p.RungDeltas))
	}
	approx := func(got, want float64) bool { return got > want-1e-12 && got < want+1e-12 }
	if got := p.RungDeltas[0][0]; !approx(got, 0.30) {
		t.Fatalf("rung 0 cpu0 = %g", got)
	}
	// Rung 1: flat stays at its only mode (0.10), lad drops to eco (0.04).
	if got := p.RungDeltas[1][0]; !approx(got, 0.14) {
		t.Fatalf("rung 1 cpu0 = %g", got)
	}
}

// TestKeyOfStableAcrossReparse: the cache key hashes the canonical
// rendered form, so a re-parsed copy lands on the same slot, and order
// matters (install order is part of plan identity).
func TestKeyOfStableAcrossReparse(t *testing.T) {
	a := xml("a", 0, 0.01, nil, []string{"t"}, "")
	b := xml("b", 1, 0.01, []string{"t"}, nil, "")
	d1 := []*descriptor.Component{mustParse(t, a), mustParse(t, b)}
	d2 := []*descriptor.Component{mustParse(t, a), mustParse(t, b)}
	if KeyOf(d1) != KeyOf(d2) {
		t.Fatal("re-parsed descriptor set changed the cache key")
	}
	if KeyOf(d1) == KeyOf([]*descriptor.Component{d1[1], d1[0]}) {
		t.Fatal("install order must be part of plan identity")
	}
}

// TestCacheStatsAndEviction exercises the bounded cache.
func TestCacheStatsAndEviction(t *testing.T) {
	c := NewCache()
	if _, ok := c.Get("absent"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(&Plan{Key: "k1"})
	if _, ok := c.Get("k1"); !ok {
		t.Fatal("miss after put")
	}
	hits, misses, size := c.Stats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, size)
	}
	for i := 0; i < defaultCacheSize+10; i++ {
		c.Put(&Plan{Key: fmt.Sprintf("fill%04d", i)})
	}
	if _, _, size := c.Stats(); size > defaultCacheSize {
		t.Fatalf("cache grew past its bound: %d", size)
	}
	var nilCache *Cache
	if _, ok := nilCache.Get("x"); ok {
		t.Fatal("nil cache hit")
	}
	nilCache.Put(&Plan{Key: "x"}) // must not panic
}

// TestAdmitDryRunMovedView: a plan compiled against an empty view must
// fail its dry-run once the live view is loaded past the bound.
func TestAdmitDryRunMovedView(t *testing.T) {
	descs := []*descriptor.Component{mustParse(t, xml("c", 0, 0.3, nil, nil, ""))}
	p, err := Compile(descs, env2())
	if err != nil || p.Fallback != "" {
		t.Fatalf("compile: %v %q", err, p.Fallback)
	}
	free := policy.View{NumCPUs: 2}
	if why := p.AdmitDryRun(free, 2, 1.0); why != "" {
		t.Fatalf("dry-run against free view: %s", why)
	}
	busy := policy.NewView(2, []policy.Contract{
		{Name: "big", CPU: 0, CPUUsage: 0.8},
	})
	if why := p.AdmitDryRun(busy, 2, 1.0); !strings.Contains(why, "denied") {
		t.Fatalf("dry-run against busy view = %q, want denial", why)
	}
}

// TestFingerprintTracksProviders: the external-satisfiability
// fingerprint changes when a provider that satisfies a bundle inport
// appears, and is insensitive to irrelevant providers.
func TestFingerprintTracksProviders(t *testing.T) {
	descs := []*descriptor.Component{mustParse(t, xml("c", 0, 0.01, []string{"base"}, nil, ""))}
	ext := mustParse(t, xml("ext", 0, 0.01, nil, []string{"base"}, ""))
	other := mustParse(t, xml("oth", 0, 0.01, nil, []string{"unrel"}, ""))
	none := Fingerprint(descs, nil)
	withExt := Fingerprint(descs, []ExtProvider{{Origin: "ext", Port: ext.OutPorts[0]}})
	withOther := Fingerprint(descs, []ExtProvider{{Origin: "oth", Port: other.OutPorts[0]}})
	if none == withExt {
		t.Fatal("fingerprint blind to a satisfying provider")
	}
	if none != withOther {
		t.Fatal("fingerprint sensitive to an irrelevant provider")
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

// TestCacheEvictsOldestFirst: past capacity the cache evicts in
// insertion order, so exactly the newest 256 of 300 keys survive, and
// the lookup counters count every Get.
func TestCacheEvictsOldestFirst(t *testing.T) {
	c := NewCache()
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	for i := 0; i < 300; i++ {
		c.Put(&Plan{Key: key(i)})
	}
	c.Put(&Plan{Key: key(299)}) // a re-put neither grows nor reorders
	for i := 0; i < 300; i++ {
		_, ok := c.Get(key(i))
		if want := i >= 300-defaultCacheSize; ok != want {
			t.Fatalf("%s cached = %v, want %v", key(i), ok, want)
		}
	}
	hits, misses, size := c.Stats()
	if hits != defaultCacheSize || misses != 300-defaultCacheSize || size != defaultCacheSize {
		t.Fatalf("stats = %d hits, %d misses, %d entries; want %d, %d, %d",
			hits, misses, size, defaultCacheSize, 300-defaultCacheSize, defaultCacheSize)
	}
	c.Put(&Plan{Key: key(300)})
	if _, ok := c.Get(key(300 - defaultCacheSize)); ok {
		t.Fatalf("%s survived one more insert; want the oldest evicted", key(300-defaultCacheSize))
	}
}

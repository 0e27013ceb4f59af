package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"strings"
)

// Input generation. Every descriptor, op stream and fault script the
// benchmark feeds the system is rendered here from the run seed with the
// standard library's PCG generator, so edits to the repository's own
// workload builders or random sources cannot change the benchmark inputs.

// newRNG derives one named input stream from the run seed. Each generator
// draws from its own stream, so adding draws to one never shifts another.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// port is one declared SHM port. version is the provided version on an
// outport and the accepted range on an inport; both it and datatype may
// be empty.
type port struct {
	name     string
	version  string
	datatype string
}

// mode is one degraded service mode of a component's ladder.
type mode struct {
	name  string
	hz    int
	usage float64
}

// comp is one generated periodic component.
type comp struct {
	name    string
	bincode string
	cpu     int
	prio    int
	hz      int
	usage   float64
	execUS  int
	in, out []port
	modes   []mode
	// dist, when set, declares a distribution-valued budget met with
	// probability p.
	dist string
	p    float64
}

// unit is one rendered component: its name and descriptor source.
type unit struct {
	name string
	src  string
}

// xml renders the component as a DRCom descriptor. RTAI names are capped
// at six characters, which is why generated names are dense.
func (c comp) xml() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<component name=%q type="periodic" cpuusage="%g">`+"\n", c.name, c.usage)
	fmt.Fprintf(&b, `  <implementation bincode=%q/>`+"\n", c.bincode)
	fmt.Fprintf(&b, `  <periodictask frequence="%d" runoncup="%d" priority="%d"/>`+"\n", c.hz, c.cpu, c.prio)
	for _, p := range c.in {
		writePort(&b, "inport", p)
	}
	for _, p := range c.out {
		writePort(&b, "outport", p)
	}
	if c.dist != "" {
		fmt.Fprintf(&b, `  <budget dist=%q p="%g"/>`+"\n", c.dist, c.p)
	}
	for _, m := range c.modes {
		fmt.Fprintf(&b, `  <mode name=%q frequence="%d" cpuusage="%g"/>`+"\n", m.name, m.hz, m.usage)
	}
	fmt.Fprintf(&b, `  <property name="drcom.exectime.us" type="Integer" value="%d"/>`+"\n", c.execUS)
	b.WriteString("</component>")
	return b.String()
}

func writePort(b *strings.Builder, kind string, p port) {
	fmt.Fprintf(b, `  <%s name=%q interface="RTAI.SHM" type="Integer" size="4"`, kind, p.name)
	if p.version != "" {
		fmt.Fprintf(b, ` version=%q`, p.version)
	}
	if p.datatype != "" {
		fmt.Fprintf(b, ` datatype=%q`, p.datatype)
	}
	b.WriteString("/>\n")
}

func render(cs []comp) []unit {
	out := make([]unit, len(cs))
	for i, c := range cs {
		out[i] = unit{name: c.name, src: c.xml()}
	}
	return out
}

// budget is the declared cpuusage of a job of execUS microseconds at hz:
// its nominal demand plus 25% slack, so only an injected fault crosses the
// contract guard's 1.5× overrun tolerance.
func budget(execUS, hz int) float64 {
	return round5(float64(execUS) * float64(hz) * 1.25 / 1e6)
}

func round5(x float64) float64 { return math.Round(x*1e5) / 1e5 }

// normalBudget renders a distribution-valued budget centred on usage.
func normalBudget(usage float64) string {
	return fmt.Sprintf("normal(%g,%g)", usage, round5(usage/10))
}

// digest accumulates one SHA-256 over everything added to it.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

package descriptor

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// scanFragments are the pieces the generated documents are spliced from:
// markup openers and closers, references, line breaks, quotes, names
// with and without prefixes, and bytes outside ASCII or UTF-8.
var scanFragments = []string{
	"<", ">", "/>", "</", "<?", "?>", "<!", "<!--", "-->", "--", "<![CDATA[", "]]>", "]]",
	"<!DOCTYPE x [<!ENTITY y 'z'>]>", "<?xml version=\"1.0\"?>", "<?xml version='1.1'?>",
	"<?xml encoding=\"utf-8\"?>", "<?xml encoding=\"latin1\"?>", "<?pi x?>",
	"&", "&amp;", "&lt;", "&#", "&#x", "&#60;", "&#x3C;", "&#0;", "&#xD800;", "&#x110000;", "&bogus;", ";",
	"\n", "\r", "\r\n", "\t", " ", "\"", "'", "=", ":", "a:", "xmlns", "xmlns:a=\"u\"", "xmlns=\"d\"",
	"component", "implementation", "outport", "mode", "property", "name", "x", "1x", "-", ".",
	"é", "·", "ñame", "\xff", "\xc3", "\x01", "\x00", "￾", "\U0001F600",
	`name="n"`, `desc="a&amp;b"`, `<extra/>`, `<a:x></a:x>`, `<a:x></b:x>`, `<x></y>`,
}

// scanBase are the documents the generator mutates.
var scanBase = []string{
	figure2,
	multiMode,
	`<component name="x" type="aperiodic"><implementation bincode="b"/></component>`,
	`<a:component xmlns:a="urn:drcom" name="ns" type="aperiodic"><a:implementation bincode="n.S"/></a:component>`,
	"<component name=\"cr\"\r\n desc=\"l1\r\nl2\" type=\"aperiodic\">\r\n<!-- c -->text<![CDATA[d]]><implementation bincode=\"c.R\"/></component>",
	// More attributes and deeper nesting than the scanner's fixed arrays
	// hold, with a duplicate past the spill that must win.
	`<component name="w" type="aperiodic" a1="1" a2="2" a3="3" a4="4" a5="5" a6="6" a7="7" a8="8" a9="9" a10="10" a11="11" a12="12" desc="&amp;" name="w2"><implementation bincode="w.W"/></component>`,
	`<component name="dp" type="aperiodic"><implementation bincode="d.P"/><a><b><c><d><e><f><g><h><i><j><k/></j></i></h></g></f></e></d></c></b></a><property name="p" value="v"/></component>`,
}

// TestScannerMatchesOraclesOnGeneratedDocs holds decode and Sniff to
// their oracles (checkDecodeOracle) on seeded mutations of descriptor
// documents: fragments spliced in, ranges cut out, or a prefix kept. It
// runs in every go test, where FuzzParse runs only its seeds.
func TestScannerMatchesOraclesOnGeneratedDocs(t *testing.T) {
	for _, doc := range scanBase {
		if _, err := decode(doc); err != nil {
			t.Fatalf("base document rejected: %v\n%s", err, doc)
		}
		checkDecodeOracle(t, doc)
	}
	rng := rand.New(rand.NewSource(1))
	accepted := 0
	for n := 0; n < 20000; n++ {
		doc := scanBase[rng.Intn(len(scanBase))]
		for m := 1 + rng.Intn(4); m > 0; m-- {
			at := rng.Intn(len(doc) + 1)
			switch rng.Intn(4) {
			case 0, 1:
				doc = doc[:at] + scanFragments[rng.Intn(len(scanFragments))] + doc[at:]
			case 2:
				end := at + rng.Intn(8)
				if end > len(doc) {
					end = len(doc)
				}
				doc = doc[:at] + doc[end:]
			case 3:
				doc = doc[:at]
			}
		}
		if _, err := decode(doc); err == nil {
			accepted++
		}
		checkDecodeOracle(t, doc)
	}
	// Both verdicts must be well represented for the comparison to mean
	// anything.
	if accepted < 1000 || accepted > 19000 {
		t.Fatalf("%d of 20000 generated documents decoded; want a mix", accepted)
	}
}

// TestParseFigure2Allocs pins the allocation cost of parsing the paper's
// Figure 2 descriptor: names and values are substrings of the source, so
// what remains is the Component itself and its slices and validation.
func TestParseFigure2Allocs(t *testing.T) {
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Parse(figure2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("Parse(figure2) makes %.0f allocations, want at most 20", allocs)
	}
}

// stormDescriptor renders component i of a population shaped like
// perfbench's reconfig-storm: a relay with one inport and one outport,
// every tenth carrying an eco mode.
func stormDescriptor(i int) string {
	mode := ""
	if i%10 == 3 {
		mode = `  <mode name="eco" frequence="50" cpuusage="0.00025"/>` + "\n"
	}
	return fmt.Sprintf(`<component name="r%03d" type="periodic" cpuusage="0.0005">
  <implementation bincode="pb.Prod"/>
  <periodictask frequence="100" runoncup="%d" priority="5"/>
  <inport name="t%03d" interface="RTAI.SHM" type="Integer" size="4"/>
  <outport name="u%03d" interface="RTAI.SHM" type="Integer" size="4"/>
%s  <property name="drcom.exectime.us" type="Integer" value="5"/>
</component>`, i%1000, i%8, i%1000, i%1000, mode)
}

// TestParseRetainedHeap measures the heap a parsed storm-shaped
// Component keeps alive while its source text is held, as a deployed
// bundle holds its descriptor resources. The Component's strings share
// the source's memory, so the bound is what the Component's own structs
// take.
func TestParseRetainedHeap(t *testing.T) {
	const n = 4000
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = stormDescriptor(i)
	}
	comps := make([]*Component, n)
	before := liveHeap()
	for i, src := range srcs {
		c, err := Parse(src)
		if err != nil {
			t.Fatalf("storm descriptor %d: %v", i, err)
		}
		comps[i] = c
	}
	after := liveHeap()
	perParse := float64(after-before) / n
	runtime.KeepAlive(srcs)
	runtime.KeepAlive(comps)
	t.Logf("retained %.0f B per parsed storm descriptor", perParse)
	if perParse > 560 {
		t.Fatalf("a parsed storm descriptor retains %.0f B, want at most 560", perParse)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestScanLineNumbers pins SyntaxError.Line where the scanner counts it
// from the position the Decoder reports: after an unread byte, at the end
// of a text run or value, and at the end of input.
func TestScanLineNumbers(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want string
	}{
		{"<component\n name=\"a\"\n\n x>", "line 4: attribute name without = in element"},
		{"<component>\n\x01\n\n<x/>", "line 4: illegal character code U+0001"},
		{"<component a=\"\x01\n\n\">", "line 3: illegal character code U+0001"},
		{"<component>\n&bogus\n;", "line 2: invalid character entity &bogus (no semicolon)"},
		{"<component>\n\n", "line 3: unexpected EOF"},
		{"<component>\n</\ncomponent>", "line 2: expected element name after </"},
	} {
		_, err := decode(tc.src)
		if err == nil || !strings.HasSuffix(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want suffix %q", tc.src, err, tc.want)
		}
		checkDecodeOracle(t, tc.src)
	}
}

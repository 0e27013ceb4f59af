package descriptor

import (
	"encoding/xml"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// unmarshalOracle decodes src with reflection xml.Unmarshal over the
// wire structs' tags: the reference decode must agree with.
func unmarshalOracle(src string) (xmlComponent, error) {
	var xc xmlComponent
	err := xml.Unmarshal([]byte(src), &xc)
	return xc, err
}

// sniffOracle is Sniff written over xml.Unmarshal.
func sniffOracle(src string) error {
	var probe struct {
		XMLName xml.Name
	}
	if err := xml.Unmarshal([]byte(src), &probe); err != nil {
		return fmt.Errorf("descriptor: XML: %w", err)
	}
	if probe.XMLName.Local != "component" {
		return ErrNotDRCom
	}
	return nil
}

// sameError reports whether two errors agree in text and dynamic type,
// and in the type of the cause they wrap.
func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return a.Error() == b.Error() && reflect.TypeOf(a) == reflect.TypeOf(b) &&
		reflect.TypeOf(errors.Unwrap(a)) == reflect.TypeOf(errors.Unwrap(b))
}

// checkDecodeOracle holds decode and Sniff to their xml.Unmarshal
// oracles on one document: the same wire struct when both accept it,
// the same error text and type otherwise, and the same Sniff verdict.
func checkDecodeOracle(t *testing.T, src string) {
	t.Helper()
	got, gerr := decode(src)
	want, werr := unmarshalOracle(src)
	if !sameError(gerr, werr) {
		t.Fatalf("decode error %T %v, Unmarshal error %T %v\nsrc:\n%s", gerr, gerr, werr, werr, src)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode and Unmarshal disagree:\ndecode:    %+v\nUnmarshal: %+v\nsrc:\n%s", got, want, src)
	}
	if gs, ws := Sniff(src), sniffOracle(src); !sameError(gs, ws) {
		t.Fatalf("Sniff = %T %v, oracle %T %v\nsrc:\n%s", gs, gs, ws, ws, src)
	}
}

// FuzzParse drives Parse with mutated descriptor XML, seeded from the
// shipped example descriptors and the decoder's edge cases. Four
// properties are checked: the token decoder and Sniff agree with their
// xml.Unmarshal oracles (struct, error text and error type), Parse never
// panics, every descriptor it accepts renders byte-equal to the fmt
// reference, and that render survives a round trip (re-parses cleanly
// and renders to the same normal form).
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "examples", "descriptors", "*.xml"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed descriptors found: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add(multiMode)
	f.Add(figure2)
	f.Add(`<component name="x" type="aperiodic"><implementation bincode="b"/></component>`)
	// Typed, versioned port contracts: the version/datatype attributes
	// of typing.go, in both the concrete-version (outport) and
	// range (inport) spellings, with structural payload types.
	f.Add(`<component name="tprov" type="periodic" cpuusage="0.2">
  <implementation bincode="t.Prov"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="feed" interface="RTAI.SHM" type="Integer" size="8" version="1.2" datatype="struct{seq:int32,val:int32[4]}"/>
</component>`)
	f.Add(`<component name="tcons" type="periodic" cpuusage="0.2">
  <implementation bincode="t.Cons"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <inport name="feed" interface="RTAI.SHM" type="Integer" size="8" version="[1.0,2.0)" datatype="struct{seq:int32}"/>
</component>`)
	f.Add(`<component name="tbyte" type="aperiodic">
  <implementation bincode="t.Byte"/>
  <inport name="blob" interface="RTAI.Mailbox" type="Byte" size="64" version="1.0.0" datatype="byte[16][2]"/>
</component>`)
	// Stochastic contracts: the <budget> distribution grammar in every
	// family, plus malformed dist strings and out-of-range p values the
	// parser must reject with typed errors (never a panic).
	f.Add(`<component name="snorm" type="periodic" cpuusage="0.3">
  <implementation bincode="s.Norm"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,0.05)" p="0.99"/>
</component>`)
	f.Add(`<component name="slogn" type="periodic" cpuusage="0.3">
  <implementation bincode="s.LogN"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="lognormal(-1.2,0.4)"/>
</component>`)
	f.Add(`<component name="semp" type="aperiodic" cpuusage="0.2">
  <implementation bincode="s.Emp"/>
  <budget dist="empirical(0.1:1,0.2:2,0.4:1)" p="0.95"/>
</component>`)
	f.Add(`<component name="sbad1" type="periodic" cpuusage="0.3">
  <implementation bincode="s.Bad"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="weibull(1,2)" p="0.99"/>
</component>`)
	f.Add(`<component name="sbad2" type="periodic" cpuusage="0.3">
  <implementation bincode="s.Bad"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,-0.05)" p="0.99"/>
</component>`)
	f.Add(`<component name="sbad3" type="periodic" cpuusage="0.3">
  <implementation bincode="s.Bad"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,0.05)" p="1.7"/>
</component>`)
	f.Add(`<component name="sbad4" type="periodic" cpuusage="0.3">
  <implementation bincode="s.Bad"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="empirical(0.1:0,:)" p="0"/>
</component>`)
	f.Add(`<component name="sbad5" type="periodic">
  <implementation bincode="s.Bad"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,0.05)" p="NaN"/>
</component>`)
	// Decoder edge cases: where a hand-written token loop could drift
	// from xml.Unmarshal.
	for _, s := range []string{
		// A namespaced root, and namespaced children matched by local name.
		`<a:component xmlns:a="urn:drcom" name="ns" type="aperiodic"><a:implementation bincode="n.S"/></a:component>`,
		`<component xmlns="urn:drcom" xmlns:b="urn:b" b:name="nb" type="aperiodic"><b:implementation b:bincode="n.B"/></component>`,
		// A leading processing instruction, comment and doctype.
		`<?xml version="1.0"?><!-- lead --><!DOCTYPE component><?pi data?><component name="pro" type="aperiodic"><implementation bincode="p.R"/></component>`,
		// Duplicate attributes: the later one wins.
		`<component name="d1" name="d2" type="periodic" type="aperiodic" cpuusage="0.1" cpuusage="0.2"><implementation bincode="a" bincode="b"/></component>`,
		// Repeated single elements merge into the first.
		`<component name="rep" type="periodic"><implementation bincode="r.A"/><implementation class="r.B"/><periodictask frequence="10" priority="1"/><periodictask runoncup="1"/><aperiodictask priority="2"/><aperiodictask/><budget dist="normal(0.1,0.01)"/><budget p="0.9"/></component>`,
		// Unknown and nested children, text and comments are skipped.
		`<component name="unk" type="aperiodic">text<implementation bincode="u.K"><outport name="deep" interface="RTAI.SHM" type="Byte" size="1"/></implementation><extra a="1"><inport name="x"/></extra><!-- c --><property name="p" value="v"><property name="q"/></property></component>`,
		// A mismatched end tag, and an end tag with no start tag.
		`<component name="mm" type="aperiodic"><implementation bincode="m.M"></implementaton></component>`,
		`</component>`,
		// A wrong root, an unclosed root, trailing garbage, no root at all.
		`<application name="app"><component name="in" type="aperiodic"/></application>`,
		`<component name="open" type="aperiodic"><implementation bincode="o.P"/>`,
		`<component name="trail" type="aperiodic"><implementation bincode="t.G"/></component><<<garbage & <more/>`,
		``,
		`<!-- only a comment -->`,
		// Entity and character references in values.
		`<component name="&#101;nt" desc="a &amp; b &lt;c&gt; &quot;d&quot; &apos;e&apos;" type="aperiodic"><implementation bincode="e.&#x4E;"/><property name="s" value="&#x3C;&#60;"/></component>`,
		`<component name="bad" desc="&bogus;" type="aperiodic"/>`,
		// Untrimmed attributes.
		`<component name=" sp " type=" aperiodic " enabled=" false " cpuusage=" 0.2" importance=" 3 "><implementation bincode=" s.P "/></component>`,
		// A perfbench-shaped producer and consumer: versioned ranges,
		// structural datatypes, an eco mode and an exec-time property.
		`<component name="q00" type="periodic" cpuusage="0.00125">
  <implementation bincode="pb.Prod"/>
  <periodictask frequence="100" runoncup="1" priority="5"/>
  <outport name="q00" interface="RTAI.SHM" type="Integer" size="4" version="1.2.0" datatype="struct{seq:int32,val:int32}"/>
  <mode name="eco" frequence="50" cpuusage="0.00063"/>
  <property name="drcom.exectime.us" type="Integer" value="10"/>
</component>`,
		`<component name="a0003" type="periodic" cpuusage="0.00063">
  <implementation bincode="pb.Cons"/>
  <periodictask frequence="100" runoncup="0" priority="6"/>
  <inport name="o0001" interface="RTAI.SHM" type="Integer" size="4" version="[2.0.0,3.0.0)" datatype="struct{seq:int32}"/>
  <inport name="q00" interface="RTAI.SHM" type="Integer" size="4" version="[1.0.0,2.0.0)" datatype="struct{seq:int32,val:int32}"/>
  <budget dist="normal(0.00063,6e-05)" p="0.99"/>
  <mode name="eco" frequence="50" cpuusage="0.00031" drops="q00"/>
  <property name="drcom.exectime.us" type="Integer" value="5"/>
</component>`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkDecodeOracle(t, src)
		c, err := Parse(src)
		if err != nil {
			return
		}
		rendered := c.Render()
		if want := renderFmt(c); rendered != want {
			t.Fatalf("Render differs from the fmt reference:\ngot:\n%s\nwant:\n%s", rendered, want)
		}
		c2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted descriptor does not re-parse: %v\noriginal:\n%s\nrendered:\n%s", err, src, rendered)
		}
		if again := c2.Render(); again != rendered {
			t.Fatalf("render is not a fixed point:\nfirst:\n%s\nsecond:\n%s", rendered, again)
		}
	})
}

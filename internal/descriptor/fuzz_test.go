package descriptor

import (
	"encoding/xml"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// unmarshalOracle decodes src with reflection xml.Unmarshal over the
// wire structs' tags: the reference decode must agree with.
func unmarshalOracle(src string) (xmlComponent, error) {
	var xc xmlComponent
	err := xml.Unmarshal([]byte(src), &xc)
	return xc, err
}

// tokenOracle decodes src with an encoding/xml Decoder's Token loop: the
// root's attributes, then each child's attributes with Decoder.Skip over
// its content, stopping at the root's end tag. It is the hand decoder the
// scanner replaced, kept as a second reference.
func tokenOracle(src string) (xmlComponent, error) {
	var xc xmlComponent
	d := xml.NewDecoder(strings.NewReader(src))
	root, err := firstStartToken(d)
	if err != nil {
		return xc, err
	}
	if root.Name.Local != "component" {
		return xc, xml.UnmarshalError("expected element type <component> but have <" + root.Name.Local + ">")
	}
	xc.XMLName = root.Name
	setTokenAttrs(root.Attr, componentAttrs, &xc.Name, &xc.Desc, &xc.Type, &xc.Enabled, &xc.CPUUsage, &xc.Importance)
	for {
		tok, err := d.Token()
		if err != nil {
			return xc, err
		}
		switch t := tok.(type) {
		case xml.EndElement:
			return xc, nil
		case xml.StartElement:
			xc.tokenChild(t)
			if err := d.Skip(); err != nil {
				return xc, err
			}
		}
	}
}

// firstStartToken skips the prolog to the document's root start element.
func firstStartToken(d *xml.Decoder) (xml.StartElement, error) {
	for {
		tok, err := d.Token()
		if err != nil {
			return xml.StartElement{}, err
		}
		if start, ok := tok.(xml.StartElement); ok {
			return start, nil
		}
	}
}

// setTokenAttrs copies each attribute whose local name is names[i] into
// *fields[i]; a later duplicate overwrites an earlier one.
func setTokenAttrs(attrs []xml.Attr, names []string, fields ...*string) {
	for _, a := range attrs {
		for i, n := range names {
			if a.Name.Local == n {
				*fields[i] = a.Value
			}
		}
	}
}

// tokenChild records the attributes of one top-level element.
func (xc *xmlComponent) tokenChild(el xml.StartElement) {
	switch el.Name.Local {
	case "implementation":
		im := &xc.Implementation
		setTokenAttrs(el.Attr, implAttrs, &im.Bincode, &im.Class)
	case "periodictask":
		if xc.PeriodicTask == nil {
			xc.PeriodicTask = &xmlPeriodic{}
		}
		pt := xc.PeriodicTask
		setTokenAttrs(el.Attr, periodicAttrs, &pt.Frequence, &pt.Frequency, &pt.RunOnCup, &pt.RunOnCPU, &pt.Priority)
	case "aperiodictask":
		if xc.AperiodicTask == nil {
			xc.AperiodicTask = &xmlAperiodic{}
		}
		at := xc.AperiodicTask
		setTokenAttrs(el.Attr, aperiodicAttrs, &at.RunOnCup, &at.RunOnCPU, &at.Priority)
	case "budget":
		if xc.Budget == nil {
			xc.Budget = &xmlBudget{}
		}
		setTokenAttrs(el.Attr, budgetAttrs, &xc.Budget.Dist, &xc.Budget.P)
	case "outport", "inport":
		var p xmlPort
		setTokenAttrs(el.Attr, portAttrs, &p.Name, &p.Interface, &p.Type, &p.Size, &p.Version, &p.DataType)
		if el.Name.Local == "outport" {
			xc.OutPorts = append(xc.OutPorts, p)
		} else {
			xc.InPorts = append(xc.InPorts, p)
		}
	case "mode":
		var m xmlMode
		setTokenAttrs(el.Attr, modeAttrs, &m.Name, &m.Frequence, &m.Frequency, &m.CPUUsage, &m.Drops)
		xc.Modes = append(xc.Modes, m)
	case "property":
		var p xmlProperty
		setTokenAttrs(el.Attr, propertyAttrs, &p.Name, &p.Type, &p.Value)
		xc.Properties = append(xc.Properties, p)
	}
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

// checkDecodeOracle holds decode and Sniff to their oracles on one
// document: decode against both xml.Unmarshal and the Decoder Token loop
// (the same wire struct when both accept it, the same error text and type
// otherwise), and Sniff against its Unmarshal form.
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
	tok, terr := tokenOracle(src)
	if !sameError(gerr, terr) {
		t.Fatalf("decode error %T %v, Token loop error %T %v\nsrc:\n%s", gerr, gerr, terr, terr, src)
	}
	if gerr == nil && !reflect.DeepEqual(got, tok) {
		t.Fatalf("decode and the Token loop disagree:\ndecode:     %+v\nToken loop: %+v\nsrc:\n%s", got, tok, src)
	}
	if gs, ws := Sniff(src), sniffOracle(src); !sameError(gs, ws) {
		t.Fatalf("Sniff = %T %v, oracle %T %v\nsrc:\n%s", gs, gs, ws, ws, src)
	}
}

// checkFinite requires an accepted descriptor's usages and rates to be
// finite, and a periodic component's period positive in every mode.
func checkFinite(t *testing.T, c *Component) {
	t.Helper()
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for i := 0; i < c.NumModes(); i++ {
		m := c.ModeSpec(i)
		if !finite(m.CPUUsage) || !finite(m.FrequencyHz) {
			t.Fatalf("mode %d of %s: cpuusage %v, frequence %v, want finite", i, c.Name, m.CPUUsage, m.FrequencyHz)
		}
		if c.Periodic != nil && m.Period() <= 0 {
			t.Fatalf("mode %d of %s: frequence %v gives period %v, want positive", i, c.Name, m.FrequencyHz, m.Period())
		}
	}
}

// FuzzParse drives Parse with mutated descriptor XML, seeded from the
// shipped example descriptors and the scanner's edge cases. Five
// properties are checked: the scanner agrees with both its oracles,
// xml.Unmarshal and the Decoder Token loop, and Sniff with its Unmarshal
// form (struct, error text and error type); Parse never panics; every
// descriptor it accepts has finite usages and rates and a positive
// period; it renders byte-equal to the fmt reference; and that render
// survives a round trip (re-parses cleanly and renders to the same
// normal form).
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
		// Scanner edges: a CDATA section, unsupported xml declarations,
		// non-ASCII names (valid and not), invalid UTF-8 in a value,
		// character references to a surrogate and to NUL, "]]>" in text,
		// a syntax error on line 4, a prefix mismatch, a carriage return
		// in a value, and a directive with quotes and a comment.
		`<component name="cd" type="aperiodic"><![CDATA[ <raw> & ]] ]]><implementation bincode="c.D"/></component>`,
		`<?xml version="1.0" encoding="ISO-8859-1"?><component name="enc" type="aperiodic"><implementation bincode="e.N"/></component>`,
		`<?xml version="1.1"?><component name="v11" type="aperiodic"><implementation bincode="v.X"/></component>`,
		`<component name="uni" type="aperiodic" ñame="x"><implementation bincode="u.N"/><größe wert="1"/></component>`,
		`<component name="uni" type="aperiodic"><implementation bincode="u.N"/><a·b ·c="1"/></component>`,
		"<component name=\"u\xff8\" type=\"aperiodic\"><implementation bincode=\"u.B\"/></component>",
		`<component name="sur" desc="&#xD800;" type="aperiodic"><implementation bincode="s.R"/></component>`,
		`<component name="nul" desc="&#0;" type="aperiodic"><implementation bincode="n.L"/></component>`,
		`<component name="br" type="aperiodic">a ]]> b<implementation bincode="b.R"/></component>`,
		"<component name=\"l4\"\n  type=\"aperiodic\">\n  <implementation bincode=\"l.F\"/>\n  <outport name=\"o\" size=4/>\n</component>",
		`<a:component xmlns:a="urn:drcom" name="px" type="aperiodic"><a:x></b:x></a:component>`,
		"<component name=\"cr\" desc=\"a\r\nb\rc\" type=\"aperiodic\"><implementation bincode=\"c.R\"/></component>",
		`<!DOCTYPE component [ <!ENTITY e "<x>"> <!-- a > b --> ]><component name="dt" type="aperiodic"><implementation bincode="d.T"/></component>`,
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
		checkFinite(t, c)
		rendered := renderFmt(c)
		c2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted descriptor does not re-parse: %v\noriginal:\n%s\nrendered:\n%s", err, src, rendered)
		}
		if again := renderFmt(c2); again != rendered {
			t.Fatalf("render is not a fixed point:\nfirst:\n%s\nsecond:\n%s", rendered, again)
		}
	})
}

package descriptor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/rtos/ipc"
)

// figure2 is the paper's Figure 2 smart-camera descriptor, with the
// figure's typographic quotes normalised to plain XML quoting.
const figure2 = `<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="camera" desc="this is a smart camera controller"
  type="periodic" enabled="true" cpuusage="0.1" xmlns:drt="urn:drcom">
  <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
  <inport name="xysize" interface="RTAI.SHM" type="Integer" size="400"/>
  <property name="prox00" type="Integer" value="6"/>
</drt:component>`

func TestParseFigure2(t *testing.T) {
	c, err := Parse(figure2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "camera" {
		t.Errorf("Name = %q", c.Name)
	}
	if c.Description != "this is a smart camera controller" {
		t.Errorf("Description = %q", c.Description)
	}
	if c.Kind != Periodic || !c.Enabled {
		t.Errorf("Kind/Enabled = %v/%v", c.Kind, c.Enabled)
	}
	if c.CPUUsage != 0.1 {
		t.Errorf("CPUUsage = %v", c.CPUUsage)
	}
	if c.Implementation != "ua.pats.demo.smartcamera.RTComponent" {
		t.Errorf("Implementation = %q", c.Implementation)
	}
	if c.Periodic == nil {
		t.Fatal("no periodic spec")
	}
	if c.Periodic.FrequencyHz != 100 || c.Periodic.CPU != 0 || c.Periodic.Priority != 2 {
		t.Errorf("periodic = %+v", c.Periodic)
	}
	if got := c.Periodic.Period(); got != 10*time.Millisecond {
		t.Errorf("Period = %v, want 10ms (paper: 100 Hz)", got)
	}
	if len(c.OutPorts) != 1 || len(c.InPorts) != 1 {
		t.Fatalf("ports = %d out, %d in", len(c.OutPorts), len(c.InPorts))
	}
	op := c.OutPorts[0]
	if op.Name != "images" || op.Interface != SHM || op.Type != ipc.Byte || op.Size != 400 {
		t.Errorf("outport = %+v", op)
	}
	ip := c.InPorts[0]
	if ip.Name != "xysize" || ip.Type != ipc.Integer || ip.Size != 400 {
		t.Errorf("inport = %+v", ip)
	}
	p, ok := c.Property("prox00")
	if !ok {
		t.Fatal("property prox00 missing")
	}
	if v, err := p.Int(); err != nil || v != 6 {
		t.Errorf("prox00 = %d, %v", v, err)
	}
	if c.CPU() != 0 || c.Priority() != 2 {
		t.Errorf("CPU/Priority = %d/%d", c.CPU(), c.Priority())
	}
}

func TestParseAliasSpellings(t *testing.T) {
	src := `<component name="t" type="periodic">
	  <implementation class="impl.Class"/>
	  <periodictask frequency="50" runoncpu="1" priority="3"/>
	</component>`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Implementation != "impl.Class" {
		t.Errorf("class alias: %q", c.Implementation)
	}
	if c.Periodic.FrequencyHz != 50 || c.Periodic.CPU != 1 {
		t.Errorf("aliases = %+v", c.Periodic)
	}
}

func TestParseAperiodic(t *testing.T) {
	src := `<component name="ap" type="aperiodic">
	  <implementation bincode="x"/>
	  <aperiodictask runoncup="0" priority="7"/>
	</component>`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Aperiodic || c.Aperiodic == nil || c.Aperiodic.Priority != 7 {
		t.Fatalf("c = %+v", c)
	}
	// aperiodictask element is optional.
	src2 := `<component name="ap2" type="aperiodic"><implementation bincode="x"/></component>`
	if _, err := Parse(src2); err != nil {
		t.Fatal(err)
	}
}

func TestParseDisabled(t *testing.T) {
	src := `<component name="d" type="aperiodic" enabled="false"><implementation bincode="x"/></component>`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Enabled {
		t.Fatal("enabled=false ignored")
	}
}

// TestParseTrimsComponentAttributes: the root's cpuusage and enabled
// attributes are trimmed like every other numeric or flag attribute.
func TestParseTrimsComponentAttributes(t *testing.T) {
	cases := []struct {
		attrs   string
		usage   float64
		enabled bool
	}{
		{`cpuusage="0.2"`, 0.2, true},
		{`cpuusage=" 0.2"`, 0.2, true},
		{`cpuusage="0.2 "`, 0.2, true},
		{"cpuusage=\"\t0.2\n\"", 0.2, true},
		{`enabled="false"`, 0, false},
		{`enabled=" false"`, 0, false},
		{`enabled="false "`, 0, false},
		{`enabled=" true "`, 0, true},
		{`enabled="no"`, 0, true},
		{`enabled=" false " cpuusage=" 0.5 "`, 0.5, false},
	}
	for _, c := range cases {
		src := `<component name="tr" type="aperiodic" ` + c.attrs + `><implementation bincode="x"/></component>`
		got, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", c.attrs, err)
			continue
		}
		if got.CPUUsage != c.usage || got.Enabled != c.enabled {
			t.Errorf("%s: cpuusage=%g enabled=%v, want %g %v", c.attrs, got.CPUUsage, got.Enabled, c.usage, c.enabled)
		}
	}
	if _, err := Parse(`<component name="tr" type="aperiodic" cpuusage=" "><implementation bincode="x"/></component>`); err == nil {
		t.Error("blank cpuusage accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"not xml", `<<<`, "XML"},
		{"missing name", `<component type="periodic"><implementation bincode="x"/><periodictask frequence="1"/></component>`, "missing name"},
		{"long name", `<component name="sevenchars" type="periodic"><implementation bincode="x"/><periodictask frequence="1"/></component>`, "1..6"},
		{"bad type", `<component name="c" type="sporadic"><implementation bincode="x"/></component>`, "periodic or aperiodic"},
		{"missing periodictask", `<component name="c" type="periodic"><implementation bincode="x"/></component>`, "periodictask"},
		{"bad frequency", `<component name="c" type="periodic"><implementation bincode="x"/><periodictask frequence="-5"/></component>`, "frequence"},
		{"missing impl", `<component name="c" type="periodic"><periodictask frequence="1"/></component>`, "bincode"},
		{"bad cpuusage", `<component name="c" type="periodic" cpuusage="1.5"><implementation bincode="x"/><periodictask frequence="1"/></component>`, "cpuusage"},
		{"negative cpu", `<component name="c" type="periodic"><implementation bincode="x"/><periodictask frequence="1" runoncup="-1"/></component>`, "runoncup"},
		{"negative prio", `<component name="c" type="periodic"><implementation bincode="x"/><periodictask frequence="1" priority="-2"/></component>`, "priority"},
		{"bad port iface", `<component name="c" type="aperiodic"><implementation bincode="x"/><outport name="o" interface="TCP" type="Byte" size="4"/></component>`, "RTAI.SHM or RTAI.Mailbox"},
		{"bad port type", `<component name="c" type="aperiodic"><implementation bincode="x"/><outport name="o" interface="RTAI.SHM" type="Double" size="4"/></component>`, "Integer or Byte"},
		{"bad port size", `<component name="c" type="aperiodic"><implementation bincode="x"/><outport name="o" interface="RTAI.SHM" type="Byte" size="0"/></component>`, "size"},
		{"long port name", `<component name="c" type="aperiodic"><implementation bincode="x"/><outport name="sevenchars" interface="RTAI.SHM" type="Byte" size="4"/></component>`, "1..6"},
		{"dup port", `<component name="c" type="aperiodic"><implementation bincode="x"/><outport name="p" interface="RTAI.SHM" type="Byte" size="4"/><inport name="p" interface="RTAI.SHM" type="Byte" size="4"/></component>`, "duplicate port"},
		{"dup property", `<component name="c" type="aperiodic"><implementation bincode="x"/><property name="p" value="1"/><property name="p" value="2"/></component>`, "duplicate property"},
		{"bad property type", `<component name="c" type="aperiodic"><implementation bincode="x"/><property name="p" type="Complex" value="1"/></component>`, "unknown type"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: parsed successfully", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestValidationErrorAggregation(t *testing.T) {
	src := `<component name="waytoolongname" type="bogus"></component>`
	_, err := Parse(src)
	ve, ok := err.(*ValidationError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(ve.Problems) < 3 { // name, type, implementation
		t.Fatalf("problems = %v", ve.Problems)
	}
}

func TestPortCanSatisfy(t *testing.T) {
	out := Port{Name: "img", Interface: SHM, Type: ipc.Byte, Size: 400, Direction: Out}
	cases := []struct {
		name string
		in   Port
		want bool
	}{
		{"exact", Port{Name: "img", Interface: SHM, Type: ipc.Byte, Size: 400, Direction: In}, true},
		{"smaller consumer", Port{Name: "img", Interface: SHM, Type: ipc.Byte, Size: 100, Direction: In}, true},
		{"larger consumer", Port{Name: "img", Interface: SHM, Type: ipc.Byte, Size: 500, Direction: In}, false},
		{"name mismatch", Port{Name: "pic", Interface: SHM, Type: ipc.Byte, Size: 400, Direction: In}, false},
		{"iface mismatch", Port{Name: "img", Interface: Mailbox, Type: ipc.Byte, Size: 400, Direction: In}, false},
		{"type mismatch", Port{Name: "img", Interface: SHM, Type: ipc.Integer, Size: 400, Direction: In}, false},
		{"wrong direction", Port{Name: "img", Interface: SHM, Type: ipc.Byte, Size: 400, Direction: Out}, false},
	}
	for _, c := range cases {
		if got := out.CanSatisfy(c.in); got != c.want {
			t.Errorf("%s: CanSatisfy = %v, want %v", c.name, got, c.want)
		}
	}
	in := Port{Name: "img", Interface: SHM, Type: ipc.Byte, Size: 400, Direction: In}
	if in.CanSatisfy(in) {
		t.Error("inport satisfied an inport")
	}
}

func TestPropertyAccessors(t *testing.T) {
	pi := Property{Name: "i", Type: "Integer", Value: "42"}
	if v, err := pi.Int(); err != nil || v != 42 {
		t.Errorf("Int = %d, %v", v, err)
	}
	if v, err := (Property{Name: "s", Type: "Integer", Value: " -7 "}).Int(); err != nil || v != -7 {
		t.Errorf("Int of a padded value = %d, %v", v, err)
	}
	bad := Property{Name: "x", Type: "Integer", Value: "zz"}
	if _, err := bad.Int(); err == nil {
		t.Error("bad Int parsed")
	}
}

func TestPropertyDefaultTypeString(t *testing.T) {
	src := `<component name="c" type="aperiodic"><implementation bincode="x"/><property name="s" value="hello"/></component>`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.Property("s")
	if p.Type != "String" || p.Value != "hello" {
		t.Fatalf("p = %+v", p)
	}
	if _, ok := c.Property("missing"); ok {
		t.Fatal("phantom property")
	}
}

func TestParseAll(t *testing.T) {
	a := `<component name="aaa" type="aperiodic"><implementation bincode="x"/></component>`
	b := `<component name="bbb" type="aperiodic"><implementation bincode="x"/></component>`
	comps, err := ParseAll([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 {
		t.Fatalf("comps = %d", len(comps))
	}
	if _, err := ParseAll([]string{a, a}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := ParseAll([]string{a, "<<<"}); err == nil {
		t.Fatal("bad document accepted")
	}
}

func TestSniff(t *testing.T) {
	if err := Sniff(figure2); err != nil {
		t.Fatalf("Sniff(figure2) = %v", err)
	}
	if err := Sniff(`<other/>`); err != ErrNotDRCom {
		t.Fatalf("Sniff(other) = %v", err)
	}
	if err := Sniff(`<<<`); err == nil {
		t.Fatal("Sniff parsed garbage")
	}
	// Sniff reads through the root: a malformed document is an XML
	// error whatever its root, and bytes after the root are ignored.
	if err := Sniff(`<other><open></other>`); err == nil || err == ErrNotDRCom {
		t.Fatalf("Sniff(malformed other) = %v", err)
	}
	if err := Sniff(`<component name="c">`); err == nil {
		t.Fatal("Sniff accepted an unclosed root")
	}
	if err := Sniff(`<x:component xmlns:x="urn:x"/><<<`); err != nil {
		t.Fatalf("Sniff(namespaced root, trailing garbage) = %v", err)
	}
}

func TestPeriodZeroFrequency(t *testing.T) {
	var p PeriodicSpec
	if p.Period() != 0 {
		t.Fatal("zero frequency period not 0")
	}
}

func TestDirectionString(t *testing.T) {
	if Out.String() != "outport" || In.String() != "inport" {
		t.Fatal("direction strings")
	}
}

// TestParseRejectsNonFiniteNumbers: strconv.ParseFloat accepts NaN, ±Inf
// and rates whose period does not fit a time.Duration. A NaN usage slips
// past a range check and poisons a CPU's admission sum; an infinite or
// above-1-GHz rate gives a zero period, which divides by zero when the
// task is created mid-run; a vanishing rate never releases. Each must be
// rejected, and the boundary rates accepted with a positive period.
func TestParseRejectsNonFiniteNumbers(t *testing.T) {
	doc := func(usage, freq, modeFreq, modeUsage string) string {
		return `<component name="nf" type="periodic" cpuusage="` + usage + `">
  <implementation bincode="n.F"/>
  <periodictask frequence="` + freq + `" runoncup="0" priority="1"/>
  <mode name="eco" frequence="` + modeFreq + `" cpuusage="` + modeUsage + `"/>
</component>`
	}
	for _, tc := range []struct {
		usage, freq, modeFreq, modeUsage string
		want                             string // "" when accepted
	}{
		{"NaN", "100", "50", "0.1", `cpuusage "NaN" must be a fraction`},
		{"0.5", "100", "50", "NaN", `mode "eco" cpuusage "NaN" must be a fraction`},
		{"0.5", "NaN", "50", "0.1", `periodictask frequence "NaN" must be a positive finite rate`},
		{"0.5", "+Inf", "50", "0.1", `periodictask frequence "+Inf" must be a positive finite rate`},
		{"0.5", "Inf", "50", "0.1", `periodictask frequence "Inf" must be a positive finite rate`},
		{"0.5", "1e-300", "50", "0.1", `periodictask frequence "1e-300" must be a positive finite rate`},
		{"0.5", "2e9", "50", "0.1", `periodictask frequence "2e9" must be a positive finite rate`},
		{"0.5", "1.5e9", "50", "0.1", `periodictask frequence "1.5e9" must be a positive finite rate`},
		{"0.5", "1e-10", "50", "0.1", `periodictask frequence "1e-10" must be a positive finite rate`},
		{"0.5", "100", "NaN", "0.1", `mode "eco" frequence "NaN" must be a positive finite rate`},
		{"0.5", "100", "+Inf", "0.1", `mode "eco" frequence "+Inf" must be a positive finite rate`},
		{"0.5", "100", "1e-300", "0.1", `mode "eco" frequence "1e-300" must be a positive finite rate`},
		{"0.5", "100", "2e9", "0.1", `mode "eco" frequence "2e9" must be a positive finite rate`},
		{"0.5", "1e9", "1e9", "0.1", ""},
		{"0.5", "1.1e-10", "1.1e-10", "0.1", ""},
	} {
		src := doc(tc.usage, tc.freq, tc.modeFreq, tc.modeUsage)
		c, err := Parse(src)
		if tc.want == "" {
			if err != nil {
				t.Errorf("frequence %s: %v, want accepted", tc.freq, err)
				continue
			}
			if c.Periodic.Period() <= 0 || c.ModeSpec(1).Period() <= 0 {
				t.Errorf("frequence %s: periods %v and %v, want positive", tc.freq, c.Periodic.Period(), c.ModeSpec(1).Period())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Parse error %v, want it to contain %q", tc, err, tc.want)
		}
	}
}

package descriptor

import (
	"strings"
	"testing"

	"repro/internal/rtos/ipc"
)

func TestParseDataTypeCanonical(t *testing.T) {
	cases := []struct {
		in, want string // want=="" means parse error expected
	}{
		{"int32", "int32"},
		{"byte", "byte"},
		{" int32 [ 4 ] ", "int32[4]"},
		{"int32[4][2]", "int32[4][2]"},
		{"struct{b:int32,a:int32}", "struct{a:int32,b:int32}"},
		{"struct{ x : byte[3] , a : struct{ z:byte } }", "struct{a:struct{z:byte},x:byte[3]}"},
		{"", ""},
		{"int64", ""},
		{"int32[0]", ""},
		{"int32[-1]", ""},
		{"struct{}", ""},
		{"struct{a:int32,a:byte}", ""},
		{"struct{a:int32", ""},
		{"int32 junk", ""},
		{strings.Repeat("struct{a:", 40) + "int32" + strings.Repeat("}", 40), ""},
	}
	for _, c := range cases {
		dt, err := parseDataType(c.in)
		if c.want == "" {
			if err == nil {
				t.Errorf("parseDataType(%q) accepted, want error (got %s)", c.in, dt)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDataType(%q): %v", c.in, err)
			continue
		}
		if got := dt.String(); got != c.want {
			t.Errorf("parseDataType(%q) = %s, want %s", c.in, got, c.want)
		}
		// Canonical form is a fixed point.
		dt2, err := parseDataType(c.want)
		if err != nil {
			t.Errorf("canonical %q does not re-parse: %v", c.want, err)
		} else if again := dt2.String(); again != c.want {
			t.Errorf("canonical %q is not a fixed point: got %q", c.want, again)
		}
	}
}

func TestDataTypeFlatten(t *testing.T) {
	cases := []struct {
		in    string
		typ   ipc.ElemType
		count int
		bad   bool
	}{
		{"int32", ipc.Integer, 1, false},
		{"byte[8]", ipc.Byte, 8, false},
		{"struct{a:int32,b:int32[3]}", ipc.Integer, 4, false},
		{"struct{a:int32,b:byte}", 0, 0, true},
		{"struct{a:byte[2]}[5]", ipc.Byte, 10, false},
	}
	for _, c := range cases {
		dt, err := parseDataType(c.in)
		if err != nil {
			t.Fatalf("parseDataType(%q): %v", c.in, err)
		}
		et, n, err := dt.flatten()
		if c.bad {
			if err == nil {
				t.Errorf("flatten(%q) accepted, want mixed-element error", c.in)
			}
			continue
		}
		if err != nil || et != c.typ || n != c.count {
			t.Errorf("flatten(%q) = (%v, %d, %v), want (%v, %d, nil)", c.in, et, n, err, c.typ, c.count)
		}
	}
}

func TestTypedCompatibility(t *testing.T) {
	out := func(ver, dt string) Port {
		return Port{Name: "p", Interface: SHM, Type: ipc.Integer, Size: 8,
			Direction: Out, Version: ver, DataType: dt}
	}
	in := func(ver, dt string) Port {
		return Port{Name: "p", Interface: SHM, Type: ipc.Integer, Size: 8,
			Direction: In, Version: ver, DataType: dt}
	}
	cases := []struct {
		prov, cons Port
		ok         bool
		kind       string // layer the mismatch is reported on
		reason     string // substring the mismatch text must contain
	}{
		// Untyped consumers accept anything (back-compat).
		{out("", ""), in("", ""), true, "", ""},
		{out("2.0.0", "int32[8]"), in("", ""), true, "", ""},
		// Version range checks.
		{out("1.2.0", ""), in("[1.0.0,2.0.0)", ""), true, "", ""},
		{out("2.0.0", ""), in("[1.0.0,2.0.0)", ""), false, "version", "outside required range"},
		{out("1.2.0", ""), in("1.3.0", ""), false, "version", "outside required range"},
		{out("1.3.0", ""), in("1.3.0", ""), true, "", ""},
		{out("", ""), in("1.0.0", ""), false, "version", "declares no version"},
		// Structural checks: width subtyping, array covariance.
		{out("", "struct{a:int32,b:int32[4]}"), in("", "struct{a:int32}"), true, "", ""},
		{out("", "struct{a:int32}"), in("", "struct{a:int32,b:int32}"), false, "structure", "structurally satisfy"},
		{out("", "int32[8]"), in("", "int32[4]"), true, "", ""},
		{out("", "int32[4]"), in("", "int32[8]"), false, "structure", "structurally satisfy"},
		{out("", ""), in("", "int32"), false, "structure", "declares none"},
		// A field named version is still a structural mismatch.
		{out("", "struct{version:byte}"), in("", "struct{version:int32}"), false, "structure", "structurally satisfy"},
		// Both layers must pass.
		{out("1.2.0", "int32[8]"), in("1.0", "int32[4]"), true, "", ""},
		{out("0.9.0", "int32[8]"), in("1.0", "int32[4]"), false, "version", "outside required range"},
	}
	for i, c := range cases {
		got := c.prov.CanSatisfy(c.cons)
		if got != c.ok {
			t.Errorf("case %d: CanSatisfy = %v, want %v", i, got, c.ok)
		}
		kind, why := c.prov.ExplainTypedMismatch(c.cons)
		if kind != c.kind {
			t.Errorf("case %d: mismatch kind %q, want %q", i, kind, c.kind)
		}
		if c.ok && why != "" {
			t.Errorf("case %d: unexpected mismatch reason %q", i, why)
		}
		if !c.ok && !strings.Contains(why, c.reason) {
			t.Errorf("case %d: reason %q does not mention %q", i, why, c.reason)
		}
	}
}

func TestParseTypedPorts(t *testing.T) {
	src := `<component name="tp" type="aperiodic">
  <implementation bincode="t.P"/>
  <outport name="feed" interface="RTAI.SHM" type="Integer" size="8" version="1.2" datatype="struct{v:int32[4],s:int32}"/>
  <inport name="ctl" interface="RTAI.Mailbox" type="Byte" size="16" version="[1.0,2.0)" datatype="byte[4]"/>
</component>`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.OutPorts[0].Version; got != "1.2.0" {
		t.Errorf("outport version canonicalised to %q, want 1.2.0", got)
	}
	if got := c.OutPorts[0].DataType; got != "struct{s:int32,v:int32[4]}" {
		t.Errorf("outport datatype canonicalised to %q", got)
	}
	if got := c.InPorts[0].Version; got != "[1.0.0,2.0.0)" {
		t.Errorf("inport version canonicalised to %q, want [1.0.0,2.0.0)", got)
	}

	for _, bad := range []string{
		// datatype element kind disagrees with port type
		`<component name="tp" type="aperiodic"><implementation bincode="b"/>
  <outport name="o" interface="RTAI.SHM" type="Integer" size="8" datatype="byte[4]"/></component>`,
		// datatype does not fit in the declared size
		`<component name="tp" type="aperiodic"><implementation bincode="b"/>
  <outport name="o" interface="RTAI.SHM" type="Integer" size="2" datatype="int32[4]"/></component>`,
		// malformed version
		`<component name="tp" type="aperiodic"><implementation bincode="b"/>
  <outport name="o" interface="RTAI.SHM" type="Integer" size="2" version="fish"/></component>`,
		// outports declare concrete versions, not ranges
		`<component name="tp" type="aperiodic"><implementation bincode="b"/>
  <outport name="o" interface="RTAI.SHM" type="Integer" size="2" version="[1.0,2.0)"/></component>`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse accepted invalid typed port:\n%s", bad)
		}
	}
}

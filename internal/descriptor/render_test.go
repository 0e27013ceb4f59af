package descriptor

import (
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// renderFmt writes a component back out as descriptor XML in the
// paper's Figure 2 schema; the round-trip tests pin Parse(renderFmt(c))
// equal to c.
func renderFmt(c *Component) string {
	attr := func(v string) string {
		var b strings.Builder
		_ = xml.EscapeText(&b, []byte(v))
		return `"` + strings.ReplaceAll(b.String(), `"`, "&#34;") + `"`
	}
	typedAttrs := func(p Port) string {
		var b strings.Builder
		if p.Version != "" {
			fmt.Fprintf(&b, ` version=%s`, attr(p.Version))
		}
		if p.DataType != "" {
			fmt.Fprintf(&b, ` datatype=%s`, attr(p.DataType))
		}
		return b.String()
	}
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	fmt.Fprintf(&b, `<drt:component name=%s`, attr(c.Name))
	if c.Description != "" {
		fmt.Fprintf(&b, ` desc=%s`, attr(c.Description))
	}
	fmt.Fprintf(&b, ` type=%s`, attr(string(c.Kind)))
	if !c.Enabled {
		b.WriteString(` enabled="false"`)
	}
	if c.CPUUsage != 0 {
		fmt.Fprintf(&b, ` cpuusage="%g"`, c.CPUUsage)
	}
	if c.Importance != 0 {
		fmt.Fprintf(&b, ` importance="%d"`, c.Importance)
	}
	b.WriteString(` xmlns:drt="urn:drcom">` + "\n")

	fmt.Fprintf(&b, "  <implementation bincode=%s/>\n", attr(c.Implementation))
	if c.Periodic != nil {
		fmt.Fprintf(&b, `  <periodictask frequence="%g" runoncup="%d" priority="%d"/>`+"\n",
			c.Periodic.FrequencyHz, c.Periodic.CPU, c.Periodic.Priority)
	}
	if c.Aperiodic != nil && (c.Aperiodic.CPU != 0 || c.Aperiodic.Priority != 0) {
		fmt.Fprintf(&b, `  <aperiodictask runoncup="%d" priority="%d"/>`+"\n",
			c.Aperiodic.CPU, c.Aperiodic.Priority)
	}
	if c.Budget != nil {
		fmt.Fprintf(&b, `  <budget dist=%s p="%g"/>`+"\n", attr(c.Budget.String()), c.BudgetP)
	}
	for _, p := range c.OutPorts {
		fmt.Fprintf(&b, `  <outport name=%s interface=%s type=%s size="%d"%s/>`+"\n",
			attr(p.Name), attr(string(p.Interface)), attr(p.Type.String()), p.Size, typedAttrs(p))
	}
	for _, p := range c.InPorts {
		fmt.Fprintf(&b, `  <inport name=%s interface=%s type=%s size="%d"%s/>`+"\n",
			attr(p.Name), attr(string(p.Interface)), attr(p.Type.String()), p.Size, typedAttrs(p))
	}
	for _, m := range c.Modes {
		fmt.Fprintf(&b, `  <mode name=%s`, attr(m.Name))
		if m.FrequencyHz != 0 {
			fmt.Fprintf(&b, ` frequence="%g"`, m.FrequencyHz)
		}
		fmt.Fprintf(&b, ` cpuusage="%g"`, m.CPUUsage)
		if len(m.Drops) != 0 {
			fmt.Fprintf(&b, ` drops=%s`, attr(strings.Join(m.Drops, " ")))
		}
		b.WriteString("/>\n")
	}
	for _, p := range c.Properties {
		fmt.Fprintf(&b, `  <property name=%s type=%s value=%s/>`+"\n",
			attr(p.Name), attr(p.Type), attr(p.Value))
	}
	b.WriteString("</drt:component>\n")
	return b.String()
}

func TestRenderRoundTripFigure2(t *testing.T) {
	c, err := Parse(figure2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(renderFmt(c))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, renderFmt(c))
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip changed component:\n%+v\nvs\n%+v", c, back)
	}
}

func TestRenderRoundTripAperiodic(t *testing.T) {
	src := `<component name="ap" type="aperiodic" enabled="false" importance="4">
	  <implementation bincode="x.Y"/>
	  <aperiodictask runoncup="1" priority="7"/>
	  <outport name="out" interface="RTAI.Mailbox" type="Byte" size="8"/>
	  <property name="note" value="hello &quot;world&quot;"/>
	</component>`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(renderFmt(c))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, renderFmt(c))
	}
	if !reflect.DeepEqual(c, back) {
		t.Fatalf("round trip changed component:\n%+v\nvs\n%+v", c, back)
	}
}

// Property: any component generated over the schema's value space
// survives a render/Parse round trip unchanged.
func TestRenderRoundTripProperty(t *testing.T) {
	prop := func(nameSeed uint16, periodic bool, freq uint8, cpuID, prio uint8,
		usagePct uint8, importance uint8, nPorts uint8, propVal uint16) bool {
		name := fmt.Sprintf("c%04x", nameSeed) // 5 chars, within the 6-char limit
		src := fmt.Sprintf(`<component name=%q type=%q cpuusage="%g" importance="%d">
		  <implementation bincode="gen.Impl"/>`,
			name, map[bool]string{true: "periodic", false: "aperiodic"}[periodic],
			float64(usagePct%100)/100, importance%50)
		if periodic {
			src += fmt.Sprintf(`<periodictask frequence="%d" runoncup="%d" priority="%d"/>`,
				int(freq)+1, cpuID%4, prio%32)
		} else {
			src += fmt.Sprintf(`<aperiodictask runoncup="%d" priority="%d"/>`, cpuID%4, prio%32)
		}
		for i := 0; i < int(nPorts%3); i++ {
			src += fmt.Sprintf(`<outport name="o%d" interface="RTAI.SHM" type="Integer" size="%d"/>`, i, i+1)
			src += fmt.Sprintf(`<inport name="i%d" interface="RTAI.Mailbox" type="Byte" size="%d"/>`, i, i+2)
		}
		src += fmt.Sprintf(`<property name="v" type="Integer" value="%d"/></component>`, propVal)
		c, err := Parse(src)
		if err != nil {
			return false
		}
		back, err := Parse(renderFmt(c))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(c, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

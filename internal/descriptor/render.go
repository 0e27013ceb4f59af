package descriptor

import (
	"bytes"
	"encoding/xml"
	"strconv"
	"strings"
)

// writeAttr writes ` name="value"` with the value XML-escaped.
func writeAttr(b *bytes.Buffer, name, v string) {
	b.WriteByte(' ')
	b.WriteString(name)
	b.WriteString(`="`)
	if plainAttr(v) {
		b.WriteString(v)
	} else {
		_ = xml.EscapeText(b, []byte(v))
	}
	b.WriteByte('"')
}

// plainAttr reports whether v is printable ASCII free of the characters
// xml.EscapeText rewrites, so it can be written as is.
func plainAttr(v string) bool {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\'', c == '&', c == '<', c == '>':
			return false
		}
	}
	return true
}

// writeInt writes ` name="n"`.
func writeInt(b *bytes.Buffer, name string, n int) {
	b.WriteByte(' ')
	b.WriteString(name)
	b.WriteString(`="`)
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(n), 10))
	b.WriteByte('"')
}

// writeFloat writes ` name="f"` in fmt's %g form, which is strconv's
// shortest 'g' (+Inf included: both print "+Inf").
func writeFloat(b *bytes.Buffer, name string, f float64) {
	b.WriteByte(' ')
	b.WriteString(name)
	b.WriteString(`="`)
	b.Write(strconv.AppendFloat(b.AvailableBuffer(), f, 'g', -1, 64))
	b.WriteByte('"')
}

// writePort writes one port element, with the typed version/datatype
// attributes only when set, keeping legacy output verbatim.
func writePort(b *bytes.Buffer, elem string, p Port) {
	b.WriteString("  <")
	b.WriteString(elem)
	writeAttr(b, "name", p.Name)
	writeAttr(b, "interface", string(p.Interface))
	writeAttr(b, "type", p.Type.String())
	writeInt(b, "size", p.Size)
	if p.Version != "" {
		writeAttr(b, "version", p.Version)
	}
	if p.DataType != "" {
		writeAttr(b, "datatype", p.DataType)
	}
	b.WriteString("/>\n")
}

// Render writes the component back out as descriptor XML in the paper's
// Figure 2 schema. Parse(Render(c)) yields a component equal to c, which
// the tests pin as a property; tools use Render to normalise hand-written
// descriptors, and plan keys digest it.
func (c *Component) Render() string {
	var b bytes.Buffer
	b.Grow(256 + 96*(len(c.InPorts)+len(c.OutPorts)+len(c.Modes)+len(c.Properties)))
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	b.WriteString(`<drt:component`)
	writeAttr(&b, "name", c.Name)
	if c.Description != "" {
		writeAttr(&b, "desc", c.Description)
	}
	writeAttr(&b, "type", string(c.Kind))
	if !c.Enabled {
		b.WriteString(` enabled="false"`)
	}
	if c.CPUUsage != 0 {
		writeFloat(&b, "cpuusage", c.CPUUsage)
	}
	if c.Importance != 0 {
		writeInt(&b, "importance", c.Importance)
	}
	b.WriteString(` xmlns:drt="urn:drcom">` + "\n")

	b.WriteString("  <implementation")
	writeAttr(&b, "bincode", c.Implementation)
	b.WriteString("/>\n")
	if c.Periodic != nil {
		b.WriteString("  <periodictask")
		writeFloat(&b, "frequence", c.Periodic.FrequencyHz)
		writeInt(&b, "runoncup", c.Periodic.CPU)
		writeInt(&b, "priority", c.Periodic.Priority)
		b.WriteString("/>\n")
	}
	if c.Aperiodic != nil && (c.Aperiodic.CPU != 0 || c.Aperiodic.Priority != 0) {
		b.WriteString("  <aperiodictask")
		writeInt(&b, "runoncup", c.Aperiodic.CPU)
		writeInt(&b, "priority", c.Aperiodic.Priority)
		b.WriteString("/>\n")
	}
	if c.Budget != nil {
		b.WriteString("  <budget")
		writeAttr(&b, "dist", c.Budget.String())
		writeFloat(&b, "p", c.BudgetP)
		b.WriteString("/>\n")
	}
	for _, p := range c.OutPorts {
		writePort(&b, "outport", p)
	}
	for _, p := range c.InPorts {
		writePort(&b, "inport", p)
	}
	for _, m := range c.Modes {
		b.WriteString("  <mode")
		writeAttr(&b, "name", m.Name)
		if m.FrequencyHz != 0 {
			writeFloat(&b, "frequence", m.FrequencyHz)
		}
		writeFloat(&b, "cpuusage", m.CPUUsage)
		if len(m.Drops) != 0 {
			writeAttr(&b, "drops", strings.Join(m.Drops, " "))
		}
		b.WriteString("/>\n")
	}
	for _, p := range c.Properties {
		b.WriteString("  <property")
		writeAttr(&b, "name", p.Name)
		writeAttr(&b, "type", p.Type)
		writeAttr(&b, "value", p.Value)
		b.WriteString("/>\n")
	}
	b.WriteString("</drt:component>\n")
	return b.String()
}

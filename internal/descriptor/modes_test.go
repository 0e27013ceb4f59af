package descriptor

import (
	"strings"
	"testing"
	"time"
)

// multiMode declares two degraded fallbacks below the base contract:
// "eco" quarters the rate and budget, "min" additionally sheds the
// optional tuning inport.
const multiMode = `<?xml version="1.0" encoding="UTF-8"?>
<drt:component name="calc" type="periodic" cpuusage="0.08" xmlns:drt="urn:drcom">
  <implementation bincode="demo.calc"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <inport name="tune" interface="RTAI.SHM" type="Integer" size="10"/>
  <mode name="eco" frequence="250" cpuusage="0.04"/>
  <mode name="min" frequence="100" cpuusage="0.01" drops="tune"/>
</drt:component>`

func TestParseModes(t *testing.T) {
	c, err := Parse(multiMode)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumModes() != 3 {
		t.Fatalf("NumModes = %d, want 3", c.NumModes())
	}
	if c.ModeName(0) != FullModeName || c.ModeName(1) != "eco" || c.ModeName(2) != "min" {
		t.Errorf("mode names = %q %q %q", c.ModeName(0), c.ModeName(1), c.ModeName(2))
	}
	full := c.ModeSpec(0)
	if full.FrequencyHz != 1000 || full.CPUUsage != 0.08 {
		t.Errorf("mode 0 spec = %+v", full)
	}
	eco := c.ModeSpec(1)
	if eco.FrequencyHz != 250 || eco.CPUUsage != 0.04 || len(eco.Drops) != 0 {
		t.Errorf("eco spec = %+v", eco)
	}
	min := c.ModeSpec(2)
	if min.FrequencyHz != 100 || min.CPUUsage != 0.01 {
		t.Errorf("min spec = %+v", min)
	}
	if !c.RequiresInport(0, "tune") || !c.RequiresInport(1, "tune") {
		t.Error("tune must be required in modes 0 and 1")
	}
	if c.RequiresInport(2, "tune") {
		t.Error("mode min drops tune, RequiresInport says required")
	}
	if p := min.Period(); p != 10*time.Millisecond {
		t.Errorf("min period = %v, want 10ms", p)
	}
}

func TestModeSpecInheritsFrequency(t *testing.T) {
	src := strings.Replace(multiMode, ` frequence="250"`, "", 1)
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.ModeSpec(1).FrequencyHz; got != 1000 {
		t.Errorf("eco inherited frequency = %g, want base 1000", got)
	}
}

func TestModeValidation(t *testing.T) {
	cases := []struct {
		name, mangle, with, wantErr string
	}{
		{"cost must decrease", `cpuusage="0.04"`, `cpuusage="0.08"`, "monotonically decreasing"},
		{"cost equal is not decreasing", `cpuusage="0.01" drops="tune"`, `cpuusage="0.04"`, "monotonically decreasing"},
		{"duplicate mode name", `name="min"`, `name="eco"`, "duplicate mode name"},
		{"reserved mode name", `name="eco"`, `name="full"`, "duplicate mode name"},
		{"unknown dropped inport", `drops="tune"`, `drops="nope"`, "unknown inport"},
		{"bad cpuusage", `cpuusage="0.04"`, `cpuusage="zero"`, "fraction"},
		{"missing mode name", `name="eco"`, `name=""`, "missing name"},
		{"bad frequency", `frequence="250"`, `frequence="-1"`, "positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.Replace(multiMode, tc.mangle, tc.with, 1)
			if src == multiMode {
				t.Fatalf("mangle %q not applied", tc.mangle)
			}
			_, err := Parse(src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Parse = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestModeFrequencyRejectedOnAperiodic(t *testing.T) {
	src := `<component name="ap" type="aperiodic" cpuusage="0.1">
  <implementation bincode="demo.ap"/>
  <mode name="eco" frequence="10" cpuusage="0.05"/>
</component>`
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "non-periodic") {
		t.Errorf("Parse = %v, want frequence-on-aperiodic error", err)
	}
}

func TestModesRenderRoundTrip(t *testing.T) {
	c, err := Parse(multiMode)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(renderFmt(c))
	if err != nil {
		t.Fatalf("re-parse rendered descriptor: %v\n%s", err, renderFmt(c))
	}
	if renderFmt(c2) != renderFmt(c) {
		t.Errorf("render round trip diverged:\n%s\nvs\n%s", renderFmt(c), renderFmt(c2))
	}
	if len(c2.Modes) != 2 || c2.Modes[1].Drops[0] != "tune" {
		t.Errorf("round-tripped modes = %+v", c2.Modes)
	}
}

// Single-mode components keep the degenerate accessors: exactly one
// mode, named "full", carrying the base contract — the admission path
// relies on this to stay byte-identical for mode-less descriptors.
func TestSingleModeAccessors(t *testing.T) {
	c, err := Parse(figure2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumModes() != 1 {
		t.Fatalf("NumModes = %d, want 1", c.NumModes())
	}
	if c.ModeName(0) != FullModeName || c.ModeSpec(0).CPUUsage != c.CPUUsage {
		t.Errorf("mode 0 = %q %+v", c.ModeName(0), c.ModeSpec(0))
	}
	if !c.RequiresInport(0, "xysize") {
		t.Error("base mode must require every inport")
	}
}

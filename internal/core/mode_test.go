package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// calcModesXML is the calculation job with two degraded fallbacks: eco
// halves the budget at a quarter rate, min runs at a tenth.
const calcModesXML = `<component name="calc" type="periodic" cpuusage="0.5">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <mode name="eco" frequence="250" cpuusage="0.25"/>
  <mode name="min" frequence="100" cpuusage="0.05"/>
</component>`

const hogXML = `<component name="hog" type="periodic" cpuusage="0.9">
  <implementation bincode="demo.Hog"/>
  <periodictask frequence="100" runoncup="0" priority="3"/>
</component>`

// dispModesXML consumes calc's outport in full mode but can serve
// without it in its "solo" fallback.
const dispModesXML = `<component name="disp" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Display"/>
  <periodictask frequence="4" runoncup="0" priority="2"/>
  <inport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <mode name="solo" cpuusage="0.05" drops="lat"/>
</component>`

func modeOf(t *testing.T, d *DRCR, name string) (int, string) {
	t.Helper()
	info, ok := d.Component(name)
	if !ok {
		t.Fatalf("component %s unknown", name)
	}
	return info.Mode, info.ModeName
}

// TestDowngradeBeforeDeny pins the admission walk: a component whose
// full contract does not fit is admitted in its best feasible mode
// instead of being denied, and steps back to the full contract when the
// capacity returns.
func TestDowngradeBeforeDeny(t *testing.T) {
	for _, fullSweep := range []bool{false, true} {
		name := "worklist"
		if fullSweep {
			name = "fullsweep"
		}
		t.Run(name, func(t *testing.T) {
			fw := osgi.NewFramework()
			k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 17})
			d, err := newEngine(fw, k, fullSweep)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)

			if err := d.Deploy(mustParse(t, hogXML)); err != nil {
				t.Fatal(err)
			}
			if err := d.Deploy(mustParse(t, calcModesXML)); err != nil {
				t.Fatal(err)
			}
			// 0.9 + 0.5 > 1.0 and 0.9 + 0.25 > 1.0, but 0.9 + 0.05 fits:
			// calc must be active in "min", not denied.
			if got := stateOf(t, d, "calc"); got != Active {
				t.Fatalf("calc state = %v, want Active", got)
			}
			if m, mn := modeOf(t, d, "calc"); m != 2 || mn != "min" {
				t.Fatalf("calc mode = %d (%s), want 2 (min)", m, mn)
			}
			info, _ := d.Component("calc")
			if info.CPUUsage != 0.05 {
				t.Fatalf("degraded CPUUsage = %g, want the admitted mode's 0.05", info.CPUUsage)
			}
			spans := d.Obs().Why("calc")
			found := false
			for _, s := range spans {
				if s.Kind == obs.KindDowngrade && strings.Contains(s.Detail, "downgrade-before-deny") {
					found = true
				}
			}
			if !found {
				t.Fatalf("no downgrade-before-deny span for calc; got %v", spans)
			}

			// Freeing the hog promotes calc stepwise back to the full
			// contract within one Resolve fixed point.
			if err := d.Remove("hog"); err != nil {
				t.Fatal(err)
			}
			if m, mn := modeOf(t, d, "calc"); m != 0 || mn != "full" {
				t.Fatalf("after capacity freed: calc mode = %d (%s), want 0 (full)", m, mn)
			}
			if got := stateOf(t, d, "calc"); got != Active {
				t.Fatalf("calc state after promotion = %v, want Active", got)
			}
			up := 0
			for _, s := range d.Obs().Spans() {
				if s.Kind == obs.KindUpgrade && s.Component == "calc" {
					up++
				}
			}
			if up != 2 {
				t.Fatalf("want 2 upgrade spans (min->eco->full), got %d", up)
			}
		})
	}
}

// TestDowngradeAndPromotionHold pins the guard-facing API: Downgrade
// steps an active component down and bars promotion until
// AllowPromotion lifts the hold.
func TestDowngradeAndPromotionHold(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Deploy(mustParse(t, calcModesXML)); err != nil {
		t.Fatal(err)
	}
	if m, _ := modeOf(t, d, "calc"); m != 0 {
		t.Fatalf("calc starts in mode %d, want 0", m)
	}
	if err := d.Downgrade("calc", "overrun observed"); err != nil {
		t.Fatal(err)
	}
	if m, mn := modeOf(t, d, "calc"); m != 1 || mn != "eco" {
		t.Fatalf("after Downgrade: mode = %d (%s), want 1 (eco)", m, mn)
	}
	if got := stateOf(t, d, "calc"); got != Active {
		t.Fatalf("calc state after downgrade = %v, want Active (stay available)", got)
	}
	// Capacity is plentiful, but the hold must keep the mode pinned.
	d.Resolve()
	if m, _ := modeOf(t, d, "calc"); m != 1 {
		t.Fatalf("promotion ran despite hold: mode = %d", m)
	}
	if err := d.AllowPromotion("calc"); err != nil {
		t.Fatal(err)
	}
	if m, mn := modeOf(t, d, "calc"); m != 0 || mn != "full" {
		t.Fatalf("after AllowPromotion: mode = %d (%s), want 0 (full)", m, mn)
	}
	if err := d.Downgrade("calc", "again"); err != nil {
		t.Fatal(err)
	}
	if err := d.Downgrade("calc", "worse"); err != nil {
		t.Fatal(err)
	}
	if m, mn := modeOf(t, d, "calc"); m != 2 || mn != "min" {
		t.Fatalf("double downgrade: mode = %d (%s), want 2 (min)", m, mn)
	}
	if err := d.Downgrade("calc", "no lower"); err == nil {
		t.Fatal("Downgrade below the last mode must fail")
	}
}

// TestModeDropsKeepServing pins optional-input shedding: a component
// whose fallback drops an inport activates degraded without the
// provider, keeps serving when the provider leaves, and returns to the
// full contract when it comes back.
func TestModeDropsKeepServing(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Deploy(mustParse(t, dispModesXML)); err != nil {
		t.Fatal(err)
	}
	// No provider for lat: full mode is infeasible, solo drops the port.
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp state = %v, want Active in solo mode", got)
	}
	if m, mn := modeOf(t, d, "disp"); m != 1 || mn != "solo" {
		t.Fatalf("disp mode = %d (%s), want 1 (solo)", m, mn)
	}
	info, _ := d.Component("disp")
	if _, bound := info.Bindings["lat"]; bound {
		t.Fatal("dropped inport must stay unbound")
	}

	// The provider's arrival promotes disp to the full contract and binds
	// the port.
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if m, mn := modeOf(t, d, "disp"); m != 0 || mn != "full" {
		t.Fatalf("with provider: disp mode = %d (%s), want 0 (full)", m, mn)
	}
	info, _ = d.Component("disp")
	if info.Bindings["lat"] != "calc" {
		t.Fatalf("lat binding = %q, want calc", info.Bindings["lat"])
	}

	// The provider leaving downgrades disp back to solo instead of
	// cascading it down.
	if err := d.Remove("calc"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp state after provider loss = %v, want Active (degraded)", got)
	}
	if m, mn := modeOf(t, d, "disp"); m != 1 || mn != "solo" {
		t.Fatalf("disp mode after provider loss = %d (%s), want 1 (solo)", m, mn)
	}
}

// TestCrashAndEnable pins the supervisor-facing API: Crash lands the
// component DISABLED (no self-recovery), Enable re-enters admission.
func TestCrashAndEnable(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, displayXML)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp = %v, want Active", got)
	}
	if err := d.Crash("calc", "fault injected"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "calc"); got != Disabled {
		t.Fatalf("calc after crash = %v, want Disabled", got)
	}
	if got := stateOf(t, d, "disp"); got != Unsatisfied {
		t.Fatalf("disp after provider crash = %v, want Unsatisfied", got)
	}
	info, _ := d.Component("calc")
	if !strings.Contains(info.LastReason, "crashed") {
		t.Fatalf("calc reason = %q, want a crash reason", info.LastReason)
	}
	if err := d.Crash("calc", "idempotent on disabled"); err != nil {
		t.Fatal(err)
	}
	if err := d.Enable("calc"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "calc"); got != Active {
		t.Fatalf("calc after enable = %v, want Active", got)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp after restart = %v, want Active", got)
	}
}

package core

import (
	"strings"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// §4.2-style pair where calc declares a distribution-valued budget.
const stochCalcXML = `<component name="calc" type="periodic" cpuusage="0.3">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,0.02)" p="0.97"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
</component>`

const stochDispXML = `<component name="disp" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Display"/>
  <periodictask frequence="4" runoncup="0" priority="2"/>
  <inport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
</component>`

// A fat constant component that leaves too little headroom for calc's
// declared p=0.97 (0.75 + N(0.3,0.02) is over 1.0 more than 3% of the
// time — in fact almost always).
const stochHogXML = `<component name="hog" type="periodic" cpuusage="0.75">
  <implementation bincode="demo.Hog"/>
  <periodictask frequence="100" runoncup="0" priority="3"/>
</component>`

func stochRig(t *testing.T, fullSweep bool) *DRCR {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 1, Timing: &noNoise, Seed: 17})
	d, err := newEngine(fw, k, fullSweep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestStochasticAdmitSpanBothEngines(t *testing.T) {
	digests := make([]string, 2)
	for i, fullSweep := range []bool{false, true} {
		d := stochRig(t, fullSweep)
		for _, src := range []string{stochCalcXML, stochDispXML} {
			if err := d.Deploy(mustParse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		if got := stateOf(t, d, "calc"); got != Active {
			t.Fatalf("fullSweep=%v: calc state %v, want Active", fullSweep, got)
		}
		var admits []obs.Span
		for _, s := range d.Obs().Spans() {
			if s.Kind == obs.KindAdmit {
				admits = append(admits, s)
			}
		}
		if len(admits) != 1 || admits[0].Component != "calc" {
			t.Fatalf("fullSweep=%v: admit spans = %v, want exactly one for calc", fullSweep, admits)
		}
		if !strings.Contains(admits[0].Detail, "meets p=0.970") {
			t.Fatalf("fullSweep=%v: admit detail %q", fullSweep, admits[0].Detail)
		}
		info, _ := d.Component("calc")
		if info.BudgetDist != "normal(0.3,0.02)" || info.BudgetP != 0.97 {
			t.Fatalf("info budget = %q/%v", info.BudgetDist, info.BudgetP)
		}
		digests[i] = d.Obs().Digest()
	}
	if digests[0] != digests[1] {
		t.Fatalf("engines diverged on stochastic admission:\nworklist:  %s\nfullsweep: %s",
			digests[0], digests[1])
	}
}

func TestStochasticDenyCarriesProbability(t *testing.T) {
	for _, fullSweep := range []bool{false, true} {
		d := stochRig(t, fullSweep)
		if err := d.Deploy(mustParse(t, stochHogXML)); err != nil {
			t.Fatal(err)
		}
		if err := d.Deploy(mustParse(t, stochCalcXML)); err != nil {
			t.Fatal(err)
		}
		info, ok := d.Component("calc")
		if !ok {
			t.Fatal("calc unknown")
		}
		if info.State == Active {
			t.Fatalf("fullSweep=%v: calc admitted at mean load 1.05", fullSweep)
		}
		if !strings.Contains(info.LastReason, "below p=0.970") {
			t.Fatalf("fullSweep=%v: deny reason %q should carry the MC probability", fullSweep, info.LastReason)
		}
	}
}

// TestStochasticPlanVerdictMatchesRuntime: the dry admit's Monte-Carlo
// verdict for a stochastic component is byte-identical to the runtime's
// admit-span detail (one resolver chain, shared sampler, shared seed).
func TestStochasticPlanVerdictMatchesRuntime(t *testing.T) {
	d := stochRig(t, false)
	batch := []*descriptor.Component{mustParse(t, stochCalcXML), mustParse(t, stochDispXML)}
	previews := d.DryAdmit(batch)
	if len(previews) != 2 || previews[0].Name != "calc" || !previews[0].Admit || previews[0].Verdict == "" {
		t.Fatalf("dry admit = %+v, want calc admitted with a Monte-Carlo verdict", previews)
	}
	if previews[1].Verdict != "" {
		t.Fatalf("constant-budget disp carries a verdict: %+v", previews[1])
	}
	// Deploy both and compare the verdict strings.
	for _, src := range []string{stochCalcXML, stochDispXML} {
		if err := d.Deploy(mustParse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	var detail string
	for _, s := range d.Obs().Spans() {
		if s.Kind == obs.KindAdmit && s.Component == "calc" {
			detail = s.Detail
		}
	}
	if detail == "" {
		t.Fatal("no admit span for calc")
	}
	if detail != previews[0].Verdict {
		t.Fatalf("dry-admit verdict diverges from runtime:\ndry:     %q\nruntime: %q",
			previews[0].Verdict, detail)
	}
}

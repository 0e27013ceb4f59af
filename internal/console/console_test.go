package console

import (
	"fmt"
	"strings"
	"testing"

	drcom "repro"
	"repro/internal/contract"
	"repro/internal/descriptor"
	"repro/internal/fault"
	"repro/internal/rtos"
	"repro/internal/workload"
)

const cameraXML = `<component name="camera" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Camera"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
</component>`

const modesCameraXML = `<component name="camera" type="periodic" cpuusage="0.1">
  <implementation bincode="demo.Camera"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <mode name="eco" frequence="50" cpuusage="0.05"/>
</component>`

const provXML = `<component name="feeder" type="periodic" cpuusage="0.05">
  <implementation bincode="demo.Feeder"/>
  <periodictask frequence="100" runoncup="0" priority="3"/>
  <outport name="beam" interface="RTAI.SHM" type="Integer" size="16"/>
</component>`

const consXML = `<component name="eater" type="periodic" cpuusage="0.05">
  <implementation bincode="demo.Eater"/>
  <periodictask frequence="100" runoncup="0" priority="4"/>
  <inport name="beam" interface="RTAI.SHM" type="Integer" size="16"/>
  <inport name="ghost" interface="RTAI.SHM" type="Integer" size="16"/>
</component>`

func newConsole(t testing.TB) (*Console, *strings.Builder) {
	t.Helper()
	sys, err := drcom.NewSystem(drcom.Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	var out strings.Builder
	c := New(sys, &out)
	c.ReadFile = func(path string) ([]byte, error) {
		switch path {
		case "camera.xml":
			return []byte(cameraXML), nil
		case "modes.xml":
			return []byte(modesCameraXML), nil
		case "prov.xml":
			return []byte(provXML), nil
		case "cons.xml":
			return []byte(consXML), nil
		}
		return nil, fmt.Errorf("no such file %q", path)
	}
	return c, &out
}

func session(t *testing.T, script string) string {
	t.Helper()
	c, out := newConsole(t)
	if err := c.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestSessionBasics(t *testing.T) {
	out := session(t, `
# a comment and a blank line are skipped

deploy camera.xml
list
run 500ms
status camera
latency
view
quit
list  # unreachable after quit
`)
	for _, want := range []string{
		"deployed camera.xml",
		"ACTIVE",
		"now 500ms",
		"jobs=",
		"scheduling latency",
		"cpu0:  10% declared (camera)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "1 components") != 1 {
		t.Errorf("quit did not end the session:\n%s", out)
	}
}

func TestSessionLifecycleCommands(t *testing.T) {
	out := session(t, `
deploy camera.xml
suspend camera
resume camera
disable camera
enable camera
remove camera
events
`)
	for _, want := range []string{
		"camera: SUSPENDED",
		"camera: ACTIVE",
		"camera: DISABLED",
		"DESTROYED",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSessionWhyShowsSkippedWaiterReason: after a change on its
// processor, an admission waiter whose denial the DRCR's deny memo proves
// from a cheaper waiter's is not consulted again, so it keeps the reason
// of its last consult; that reason must still be the deny span why
// prints first.
func TestSessionWhyShowsSkippedWaiterReason(t *testing.T) {
	c, out := newConsole(t)
	xml := func(name string, usage float64) string {
		return fmt.Sprintf(`<component name=%q type="periodic" cpuusage="%g">
  <implementation bincode="demo.Load"/>
  <periodictask frequence="100" runoncup="0" priority="5"/>
</component>`, name, usage)
	}
	for _, comp := range []struct {
		name  string
		usage float64
	}{{"hog", 0.8}, {"small", 0.1}, {"w1", 0.25}, {"w2", 0.3}} {
		if err := c.sys.DeployXML(xml(comp.name, comp.usage)); err != nil {
			t.Fatal(err)
		}
	}
	c.Exec("disable small")
	w1, _ := c.sys.Component("w1")
	w2, _ := c.sys.Component("w2")
	if !strings.Contains(w1.LastReason, "budget 1.050 exceeds") {
		t.Fatalf("w1 was not re-consulted after the disable: %q", w1.LastReason)
	}
	if !strings.Contains(w2.LastReason, "budget 1.200 exceeds") {
		t.Fatalf("w2 was re-consulted, the memo should have covered it: %q", w2.LastReason)
	}
	chain := c.sys.Observer().Why("w2")
	if len(chain) == 0 || chain[0].Kind.String() != "deny" || chain[0].Detail != w2.LastReason {
		t.Fatalf("Why(w2) = %v, want a deny span with detail %q", chain, w2.LastReason)
	}
	out.Reset()
	c.Exec("why w2")
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(first, "deny w2 ("+w2.LastReason+")") {
		t.Fatalf("why w2 printed %q, want its deny span with %q", first, w2.LastReason)
	}
}

func TestSessionErrorsDoNotAbort(t *testing.T) {
	out := session(t, `
bogus command
deploy nope.xml
deploy
run notaduration
mode sideways
status ghost
set ghost k v
suspend ghost
trace sideways
gantt
deploy camera.xml
`)
	if got := strings.Count(out, "error:"); got != 10 {
		t.Errorf("errors reported = %d, want 10:\n%s", got, out)
	}
	if !strings.Contains(out, "deployed camera.xml") {
		t.Errorf("session aborted before final command:\n%s", out)
	}
}

func TestSessionSetProperty(t *testing.T) {
	out := session(t, `
deploy camera.xml
set camera gain 4
run 20ms
status camera
`)
	if !strings.Contains(out, "queued gain=4") {
		t.Errorf("set not acknowledged:\n%s", out)
	}
	if !strings.Contains(out, "served=1") {
		t.Errorf("command not served by RT side:\n%s", out)
	}
}

func TestSessionModeSwitch(t *testing.T) {
	out := session(t, `
deploy camera.xml
mode stress
run 1s
latency
mode light
mode
`)
	if !strings.Contains(out, "mode stress") {
		t.Errorf("mode switch not acknowledged:\n%s", out)
	}
	// Stress regime visible in the latency row (mean ≈ -21µs).
	if !strings.Contains(out, "-21") {
		t.Errorf("stress latency regime not visible:\n%s", out)
	}
}

// The degradation commands: modes renders the declared ladder with the
// admitted rung marked, downgrade steps down it, promote lifts the hold
// so the resolver climbs back.
func TestSessionModeLadderCommands(t *testing.T) {
	out := session(t, `
deploy modes.xml
modes
downgrade camera slow-path
downgrade camera
modes
promote camera
downgrade
promote camera extra
`)
	for _, want := range []string{
		"deployed modes.xml",
		"* 0 full", // full contract admitted at deploy
		"1 eco",    // the declared degraded rung
		"50 Hz",
		"camera: ACTIVE mode 1 (eco)", // downgrade keeps it serving
		`error: core: camera has no mode below "eco"`, // ladder bottom
		"* 1 eco",                      // second modes render: marker moved down
		"camera: ACTIVE mode 0 (full)", // promotion restored the contract
		"error: usage: downgrade <component> [reason]",
		"error: usage: promote <component>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The mode swaps surface as ACTIVE->ACTIVE events, not outages.
	if strings.Contains(out, "UNSATISFIED") {
		t.Errorf("mode transitions must not look like outages:\n%s", out)
	}
}

// Components without declared modes render as single-contract rows.
func TestSessionModesWithoutLadder(t *testing.T) {
	out := session(t, `
deploy camera.xml
modes
`)
	if !strings.Contains(out, "full contract only (10% @ ACTIVE)") {
		t.Errorf("single-mode component not rendered:\n%s", out)
	}
}

func TestSessionTraceAndGantt(t *testing.T) {
	out := session(t, `
deploy camera.xml
trace on
gantt 50ms
trace off
timeline
help
`)
	for _, want := range []string{"trace on", "gantt", "#", "legend", "state strips", "commands:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The observability commands over the camera demo: spans, metrics, and
// watch must all reflect the deploy/activate history.
func TestSessionObservabilityCommands(t *testing.T) {
	out := session(t, `
deploy camera.xml
spans
why camera
metrics
watch 100ms
why ghost
spans -3
`)
	for _, want := range []string{
		"deploy camera UNSATISFIED",
		"transition camera SATISFIED->ACTIVE",
		"spans shown,",
		"observability @",
		"lifecycle: 1 deploys",
		"watched 100ms:",
		`error: no spans recorded for "ghost"`,
		"error: usage: spans [n]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// why camera roots the chain at a causing span: ACTIVE descends from
	// the SATISFIED transition.
	if !strings.Contains(out, "<- ") {
		t.Errorf("why printed no causal ancestry:\n%s", out)
	}
}

// Acceptance: after a guarded fault campaign, `why disp` must answer the
// paper's management question — why did the display stop? — with the
// full causal chain from the injected fault through the violation and
// revoke to the cascade deactivation.
func TestSessionWhyChainAfterFaultCampaign(t *testing.T) {
	sys, err := drcom.NewSystem(drcom.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// The §4.2 functional routines: calc publishes on its outport so the
	// guard's staleness probe sees live data (only the injected budget
	// overrun should trip it).
	err = sys.RegisterBody("rtai.demo.Calculation", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(workload.LatencySHM); err == nil {
				_ = shm.Set(0, int64(j.Now.Sub(j.Nominal)))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sys.RegisterBody("rtai.demo.Display", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM(workload.LatencySHM); err == nil {
				_, _ = shm.Get(0)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{workload.CalcXML, workload.DisplayXML} {
		if err := sys.DeployXML(src); err != nil {
			t.Fatal(err)
		}
	}
	inj, err := fault.New(sys.DRCR(), sys.Framework())
	if err != nil {
		t.Fatal(err)
	}
	defer inj.Close()
	if err := inj.Install(workload.StandardCampaign()); err != nil {
		t.Fatal(err)
	}
	guard, err := contract.New(sys.DRCR(), contract.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := guard.Start(); err != nil {
		t.Fatal(err)
	}
	defer guard.Stop()

	var out strings.Builder
	c := New(sys, &out)
	// Run past the fault start (300ms) and the guard's detection window,
	// but not past the first quarantine restore.
	c.Exec("run 350ms")
	c.Exec("why disp")
	c.Exec("events")
	c.Exec("metrics")

	// The chain, consequence first: disp's cascade deactivation, caused
	// by calc's revoke, caused by the violation, caused by the injection.
	text := out.String()
	idx := func(sub string) int { return strings.Index(text, sub) }
	chain := []string{
		"transition disp ACTIVE->UNSATISFIED",
		"<- ",
		"revoke calc",
		"violation calc budget-overrun",
		"fault-inject calc exec-inflate",
	}
	last := -1
	for _, want := range chain {
		at := idx(want)
		if at < 0 {
			t.Fatalf("why chain missing %q:\n%s", want, text)
		}
		if at < last {
			t.Fatalf("why chain out of order at %q:\n%s", want, text)
		}
		last = at
	}
	// The events timeline carries the same attribution as a why column.
	if !strings.Contains(text, "why: revoke calc") {
		t.Errorf("events timeline missing the revoke attribution:\n%s", text)
	}
	// And the metrics snapshot counts the enforcement.
	if !strings.Contains(text, "contract:  1 violations, 1 revocations") {
		t.Errorf("metrics snapshot missing contract counters:\n%s", text)
	}
}

// TestPlanCommand checks a two-descriptor bundle without deploying: the
// render must show the component count, the conflict-free verdict and
// the wiring table (bound, unbound), and the metrics snapshot must count
// the compile. A consumer whose version range the provider misses is
// listed as a typed conflict.
func TestPlanCommand(t *testing.T) {
	c, buf := newConsole(t)
	prev := c.ReadFile
	c.ReadFile = func(path string) ([]byte, error) {
		if path == "v2.xml" {
			return []byte(strings.Replace(consXML, `name="beam" interface="RTAI.SHM"`,
				`name="beam" version="[2.0.0,3.0.0)" interface="RTAI.SHM"`, 1)), nil
		}
		return prev(path)
	}
	if err := c.Run(strings.NewReader(`
plan prov.xml cons.xml
metrics
plan prov.xml v2.xml
quit
`)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"plan: 2 components, 2 inport edges, no typed conflicts",
		"wiring:",
		"eater.beam <- feeder",
		"eater.ghost <- (unbound)",
		"plans:     1 compiled\n",
		"plan: 2 components, 1 typed conflicts\n  conflict: feeder.beam cannot satisfy eater.beam: ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
	// Nothing was deployed: plan is read-only.
	if strings.Contains(out, "deployed") {
		t.Error("plan command deployed something")
	}
	if strings.Contains(out, "plan cache") {
		t.Errorf("metrics still renders a plan cache:\n%s", out)
	}
}

const stochConsoleXML = `<component name="stoch" type="periodic" cpuusage="0.3">
  <implementation bincode="demo.Stoch"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <budget dist="normal(0.3,0.02)" p="0.97"/>
  <mode name="eco" frequence="250" cpuusage="0.15"/>
  <property name="drcom.exectime.us" type="Integer" value="300"/>
</component>`

// TestSessionAdmitDryRun pins the admit command: it renders the resolver
// chain's verdict and the Monte-Carlo verdict without deploying, and
// refuses to run without -dry.
func TestSessionAdmitDryRun(t *testing.T) {
	c, out := newConsole(t)
	prev := c.ReadFile
	c.ReadFile = func(path string) ([]byte, error) {
		if path == "stoch.xml" {
			return []byte(stochConsoleXML), nil
		}
		return prev(path)
	}
	if err := c.Run(strings.NewReader(`
admit stoch.xml -dry
admit stoch.xml
list
`)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"admit (dry run): 1 components, 1 admitted, 0 denied",
		"  stoch    admit mode full: all 1 resolvers admitted stoch",
		"           verdict: cpu0 P(load≤1.000)=",
		"meets p=0.970 (512 trials)",
		"error: usage: admit <file.xml> [more.xml ...] -dry (admission is a dry run; deploy applies a bundle)",
		"0 components", // the dry run must not have deployed anything
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestSessionAdmitAsksCustomResolver: under a customized resolving
// service the dry admit reports that resolver's denial and reason — the
// answer the deploy then gives — instead of the internal resolver's.
func TestSessionAdmitAsksCustomResolver(t *testing.T) {
	c, out := newConsole(t)
	veto := drcom.Static{AdmitAll: false, Label: "veto"}
	if _, err := c.sys.RegisterResolver(veto); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(strings.NewReader(`
admit prov.xml -dry
deploy prov.xml
list
`)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"admit (dry run): 1 components, 0 admitted, 1 denied",
		"  feeder   deny  mode full: veto: static deny",
		"feeder   SATISFIED", // the deploy agrees: functionally ok, not admitted
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestZeroArgCommandsRejectArguments: a command that takes no arguments
// answers extra ones with an error instead of silently ignoring them,
// and still runs when given none.
func TestZeroArgCommandsRejectArguments(t *testing.T) {
	for _, tc := range []struct{ line, cmd string }{
		{"modes camera", "modes"},
		{"list extra", "list"},
		{"lb extra", "lb"},
		{"ss a b", "ss"},
		{"events 5", "events"},
		{"metrics all", "metrics"},
		{"timeline 10ms", "timeline"},
		{"latency camera", "latency"},
		{"view cpu0", "view"},
		{"nodes x", "nodes"},
		{"links x", "links"},
	} {
		c, out := newConsole(t)
		c.Exec("deploy camera.xml")
		out.Reset()
		c.Exec(tc.line)
		if want := "error: " + tc.cmd + " takes no arguments\n"; out.String() != want {
			t.Errorf("%q: got %q, want %q", tc.line, out.String(), want)
		}
		out.Reset()
		c.Exec(tc.cmd)
		if strings.Contains(out.String(), "takes no arguments") {
			t.Errorf("bare %q rejected: %q", tc.cmd, out.String())
		}
	}
}

package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/descriptor"
	"repro/internal/ldap"
	"repro/internal/manifest"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

var noNoise = rtos.TimingModel{}

func newRig(t *testing.T) (*osgi.Framework, *rtos.Kernel, *DRCR) {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 17})
	d, err := New(fw, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return fw, k, d
}

// calcXML / displayXML mirror the paper's §4.2 component pair: a 1000 Hz
// calculation task exporting shared memory and a 4 Hz display task that
// functionally depends on it.
const calcXML = `<component name="calc" desc="simulated computing job" type="periodic" cpuusage="0.05">
  <implementation bincode="demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
</component>`

const displayXML = `<component name="disp" desc="display scheduling latency" type="periodic" cpuusage="0.01">
  <implementation bincode="demo.Display"/>
  <periodictask frequence="4" runoncup="0" priority="2"/>
  <inport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
</component>`

func mustParse(t *testing.T, src string) *descriptor.Component {
	t.Helper()
	c, err := descriptor.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func stateOf(t *testing.T, d *DRCR, name string) State {
	t.Helper()
	info, ok := d.Component(name)
	if !ok {
		t.Fatalf("component %s unknown", name)
	}
	return info.State
}

// TestDynamicityScenario reproduces §4.3 end to end: Display deployed
// first stays Unsatisfied; Calculation's arrival satisfies and activates
// it after the resolving services agree; stopping Calculation cascades
// Display back down.
func TestDynamicityScenario(t *testing.T) {
	fw, k, d := newRig(t)

	// The paper's customized resolving service answering true.
	custom := policy.Static{AdmitAll: true, Label: "customized"}
	if _, err := fw.RegisterService([]string{policy.ServiceInterface}, policy.Resolver(custom), nil); err != nil {
		t.Fatal(err)
	}

	if err := d.Deploy(mustParse(t, displayXML)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Unsatisfied {
		t.Fatalf("display alone = %v, want UNSATISFIED", got)
	}
	info, _ := d.Component("disp")
	if !strings.Contains(info.LastReason, "lat") {
		t.Fatalf("reason %q does not name the missing inport", info.LastReason)
	}

	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "calc"); got != Active {
		t.Fatalf("calc = %v", got)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("display after calc arrival = %v, want ACTIVE", got)
	}
	info, _ = d.Component("disp")
	if info.Bindings["lat"] != "calc" {
		t.Fatalf("bindings = %v", info.Bindings)
	}

	// Both RT tasks really run.
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	calcTask, ok := k.Task("calc")
	if !ok {
		t.Fatal("calc task missing")
	}
	if calcTask.Stats().Jobs < 99 {
		t.Fatalf("calc jobs = %d", calcTask.Stats().Jobs)
	}

	// Stopping Calculation: DRCR gets notified and finds Display
	// unsatisfied; it is deactivated.
	if err := d.Remove("calc"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Unsatisfied {
		t.Fatalf("display after calc removal = %v, want UNSATISFIED", got)
	}
	if _, ok := k.Task("disp"); ok {
		t.Fatal("display RT task survived deactivation")
	}
	if _, err := k.IPC().SHM("lat"); err == nil {
		t.Fatal("calc's outport SHM survived removal")
	}

	// Redeploying Calculation brings Display back automatically.
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("display after calc redeploy = %v, want ACTIVE", got)
	}
}

func TestCustomResolverDenies(t *testing.T) {
	fw, _, d := newRig(t)
	deny := policy.Static{AdmitAll: false, Label: "veto"}
	if _, err := fw.RegisterService([]string{policy.ServiceInterface}, policy.Resolver(deny), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "calc"); got != Satisfied {
		t.Fatalf("vetoed component = %v, want SATISFIED (functionally ok, not admitted)", got)
	}
	info, _ := d.Component("calc")
	if !strings.Contains(info.LastReason, "veto") {
		t.Fatalf("reason %q does not name the vetoing resolver", info.LastReason)
	}
}

func TestAdmissionEnforcesBudgets(t *testing.T) {
	_, _, d := newRig(t)
	mk := func(name string, usage string) *descriptor.Component {
		return mustParse(t, `<component name="`+name+`" type="periodic" cpuusage="`+usage+`">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="0" priority="3"/>
		</component>`)
	}
	if err := d.Deploy(mk("a", "0.6")); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mk("b", "0.3")); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mk("c", "0.2")); err != nil { // would make 1.1
		t.Fatal(err)
	}
	if stateOf(t, d, "a") != Active || stateOf(t, d, "b") != Active {
		t.Fatal("fitting components not active")
	}
	if got := stateOf(t, d, "c"); got != Satisfied {
		t.Fatalf("over-budget component = %v, want SATISFIED (admission denied)", got)
	}
	// Freeing budget lets the waiting component in on the next resolve.
	if err := d.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "c"); got != Active {
		t.Fatalf("after budget freed = %v, want ACTIVE", got)
	}
}

func TestAdmissionIsPerCPU(t *testing.T) {
	_, _, d := newRig(t)
	mk := func(name, cpuID string) *descriptor.Component {
		return mustParse(t, `<component name="`+name+`" type="periodic" cpuusage="0.8">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="`+cpuID+`" priority="3"/>
		</component>`)
	}
	if err := d.Deploy(mk("a", "0")); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mk("b", "1")); err != nil {
		t.Fatal(err)
	}
	if stateOf(t, d, "a") != Active || stateOf(t, d, "b") != Active {
		t.Fatal("per-CPU admission wrongly coupled the processors")
	}
}

func TestDeployValidation(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Deploy(nil); err == nil {
		t.Fatal("nil descriptor accepted")
	}
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, calcXML)); err == nil {
		t.Fatal("duplicate name accepted (names are globally unique)")
	}
	tooManyCPUs := mustParse(t, `<component name="far" type="periodic" cpuusage="0.1">
	  <implementation bincode="x"/>
	  <periodictask frequence="10" runoncup="7" priority="1"/>
	</component>`)
	if err := d.Deploy(tooManyCPUs); err == nil {
		t.Fatal("cpu out of range accepted")
	}
}

func TestEnableDisable(t *testing.T) {
	_, k, d := newRig(t)
	disabled := mustParse(t, `<component name="late" type="periodic" enabled="false" cpuusage="0.1">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="1"/>
	</component>`)
	if err := d.Deploy(disabled); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "late"); got != Disabled {
		t.Fatalf("state = %v, want DISABLED until enableRTComponent", got)
	}
	if _, ok := k.Task("late"); ok {
		t.Fatal("disabled component has an RT task")
	}
	if err := d.Enable("late"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "late"); got != Active {
		t.Fatalf("after enable = %v", got)
	}
	if err := d.Disable("late"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "late"); got != Disabled {
		t.Fatalf("after disable = %v", got)
	}
	if _, ok := k.Task("late"); ok {
		t.Fatal("disabled component kept its RT task")
	}
	if err := d.Enable("nope"); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("Enable unknown: %v", err)
	}
	if err := d.Disable("nope"); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("Disable unknown: %v", err)
	}
}

func TestSuspendResumeKeepsContractAdmitted(t *testing.T) {
	_, k, d := newRig(t)
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, displayXML)); err != nil {
		t.Fatal(err)
	}
	if err := d.Suspend("calc"); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "calc"); got != Suspended {
		t.Fatalf("calc = %v", got)
	}
	// Suspension is not departure: the display's functional constraint
	// still holds (instance and ports exist).
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp while provider suspended = %v, want ACTIVE", got)
	}
	// The budget stays admitted.
	if n := d.GlobalView().Len(); n != 2 {
		t.Fatalf("admitted contracts = %d, want 2", n)
	}
	// The RT task actually parks (after serving the mailbox command).
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	task, _ := k.Task("calc")
	if task.State() != rtos.TaskSuspended {
		t.Fatalf("task state = %v", task.State())
	}
	if err := d.Resume("calc"); err != nil {
		t.Fatal(err)
	}
	if task.State() != rtos.TaskActive {
		t.Fatalf("task state after resume = %v", task.State())
	}
	// Guards.
	if err := d.Resume("calc"); err == nil {
		t.Fatal("resume of active component accepted")
	}
	if err := d.Suspend("disp"); err != nil {
		t.Fatal(err)
	}
	if err := d.Suspend("disp"); err == nil {
		t.Fatal("double suspend accepted")
	}
}

func TestManagementServicePublished(t *testing.T) {
	fw, k, d := newRig(t)
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	refs := fw.ServiceReferences(ManagementInterface, ldap.MustParse("(drcom.component=calc)"))
	if len(refs) != 1 {
		t.Fatalf("management services = %d", len(refs))
	}
	mgmt, ok := fw.Service(refs[0]).(Management)
	if !ok {
		t.Fatalf("service is %T", fw.Service(refs[0]))
	}
	// Drive the component through the discovered service, as an external
	// adaptation manager would.
	if err := mgmt.SetProperty("gain", "4"); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, _ := mgmt.Property("gain"); v != "4" {
		t.Fatalf("gain = %q", v)
	}
	st := mgmt.Status()
	if st.Jobs == 0 {
		t.Fatalf("status = %+v", st)
	}
	// Deactivation withdraws the service.
	if err := d.Remove("calc"); err != nil {
		t.Fatal(err)
	}
	if refs := fw.ServiceReferences(ManagementInterface, nil); len(refs) != 0 {
		t.Fatalf("management services after removal = %d", len(refs))
	}
}

func TestBundleDrivenLifecycle(t *testing.T) {
	fw, _, d := newRig(t)
	mkBundle := func(symbolic, res, xmlSrc string) *osgi.Bundle {
		m := manifest.New(symbolic, manifest.MustParseVersion("1.0"))
		m.DRComComponents = []string{res}
		b, err := fw.Install(osgi.Definition{
			Manifest:  m,
			Resources: map[string]string{res: xmlSrc},
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dispB := mkBundle("demo.display", "OSGI-INF/disp.xml", displayXML)
	if err := dispB.Start(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Unsatisfied {
		t.Fatalf("disp = %v", got)
	}
	calcB := mkBundle("demo.calc", "OSGI-INF/calc.xml", calcXML)
	if err := calcB.Start(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp after calc bundle start = %v", got)
	}
	info, _ := d.Component("calc")
	if info.Bundle != "demo.calc" {
		t.Fatalf("calc bundle = %q", info.Bundle)
	}
	// Stopping the calc bundle destroys its component and cascades.
	if err := calcB.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Component("calc"); ok {
		t.Fatal("calc survived its bundle stop")
	}
	if got := stateOf(t, d, "disp"); got != Unsatisfied {
		t.Fatalf("disp after calc bundle stop = %v", got)
	}
	// Restart brings everything back.
	if err := calcB.Start(); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "disp"); got != Active {
		t.Fatalf("disp after calc bundle restart = %v", got)
	}
}

func TestPortCompatibilityChecked(t *testing.T) {
	_, _, d := newRig(t)
	// Producer exports Integer×100; consumer wants Integer×200 — name and
	// type match but the size constraint fails (§2.3 compatibility).
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	big := mustParse(t, `<component name="dispb" type="periodic" cpuusage="0.01">
	  <implementation bincode="x"/>
	  <periodictask frequence="4" runoncup="0" priority="2"/>
	  <inport name="lat" interface="RTAI.SHM" type="Integer" size="200"/>
	</component>`)
	if err := d.Deploy(big); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "dispb"); got != Unsatisfied {
		t.Fatalf("size-incompatible consumer = %v, want UNSATISFIED", got)
	}
}

func TestEventLogRecordsTransitions(t *testing.T) {
	_, _, d := newRig(t)
	var seen []Event
	remove := d.AddListener(func(ev Event) { seen = append(seen, ev) })
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	// Deploy → UNSATISFIED → SATISFIED → ACTIVE.
	if len(seen) < 3 {
		t.Fatalf("events = %v", seen)
	}
	last := seen[len(seen)-1]
	if last.To != Active || last.Component != "calc" {
		t.Fatalf("last event = %v", last)
	}
	for _, ev := range d.Events() {
		if ev.From != 0 && !CanTransition(ev.From, ev.To) {
			t.Fatalf("illegal transition logged: %v", ev)
		}
	}
	remove()
	d.ClearEvents()
	if err := d.Remove("calc"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 { // listener removed, nothing new
		t.Fatalf("listener survived removal: %v", seen)
	}
	if len(d.Events()) == 0 {
		t.Fatal("event log empty after Remove")
	}
}

func TestLifecycleTransitionRelation(t *testing.T) {
	// Exhaustively pin Figure 1: exactly these transitions are legal.
	type tr struct{ from, to State }
	legal := map[tr]bool{}
	for _, c := range []tr{
		{Disabled, Unsatisfied}, {Disabled, Destroyed},
		{Unsatisfied, Satisfied}, {Unsatisfied, Disabled}, {Unsatisfied, Destroyed},
		{Satisfied, Active}, {Satisfied, Unsatisfied}, {Satisfied, Disabled}, {Satisfied, Destroyed},
		{Active, Suspended}, {Active, Unsatisfied}, {Active, Disabled}, {Active, Destroyed},
		{Suspended, Active}, {Suspended, Unsatisfied}, {Suspended, Disabled}, {Suspended, Destroyed},
	} {
		legal[c] = true
	}
	states := []State{Disabled, Unsatisfied, Satisfied, Active, Suspended, Destroyed}
	for _, from := range states {
		for _, to := range states {
			want := legal[tr{from, to}]
			if got := CanTransition(from, to); got != want {
				t.Errorf("CanTransition(%v,%v) = %v, want %v", from, to, got, want)
			}
		}
	}
}

func TestBodyFactoryDataFlow(t *testing.T) {
	_, k, d := newRig(t)
	if err := d.RegisterBody("demo.Calculation", func(c *descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM("lat"); err == nil {
				_ = shm.Set(0, int64(j.Index))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	var reads []int64
	if err := d.RegisterBody("demo.Display", func(c *descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM("lat"); err == nil {
				if v, err := shm.Get(0); err == nil {
					reads = append(reads, v)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterBody("demo.Display", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, displayXML)); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(reads) < 3 {
		t.Fatalf("display reads = %d", len(reads))
	}
	if last := reads[len(reads)-1]; last < 900 {
		t.Fatalf("display saw stale data: last read %d", last)
	}
}

func TestExecTimePropertyOverride(t *testing.T) {
	_, k, d := newRig(t)
	src := `<component name="tiny" type="periodic" cpuusage="0.5">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="1"/>
	  <property name="drcom.exectime.us" type="Integer" value="20"/>
	</component>`
	if err := d.Deploy(mustParse(t, src)); err != nil {
		t.Fatal(err)
	}
	task, ok := k.Task("tiny")
	if !ok {
		t.Fatal("task missing")
	}
	if got := task.Spec().ExecTime; got != 20*time.Microsecond {
		t.Fatalf("exec = %v, want property override", got)
	}
	// Bad override refuses activation but keeps the record.
	bad := `<component name="bad" type="periodic" cpuusage="0.1">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="1"/>
	  <property name="drcom.exectime.us" type="Integer" value="-3"/>
	</component>`
	if err := d.Deploy(mustParse(t, bad)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "bad"); got == Active {
		t.Fatal("bad exec override activated")
	}
}

func TestGlobalViewContracts(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	view := d.GlobalView()
	if view.NumCPUs != 2 || view.Len() != 1 {
		t.Fatalf("view = %+v", view)
	}
	ct := view.All()[0]
	if ct.Name != "calc" || ct.CPUUsage != 0.05 || ct.Period != time.Millisecond || ct.Priority != 1 {
		t.Fatalf("contract = %+v", ct)
	}
}

func TestCloseDestroysEverything(t *testing.T) {
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 17})
	d, err := New(fw, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calc, err := descriptor.Parse(calcXML)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(calc); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close() // idempotent
	if _, ok := k.Task("calc"); ok {
		t.Fatal("RT task survived Close")
	}
	if err := d.Deploy(calc); !errors.Is(err, ErrClosed) {
		t.Fatalf("Deploy after Close: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Fatal("nil deps accepted")
	}
}

func TestRemoveUnknown(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Remove("ghost"); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("Remove unknown: %v", err)
	}
}

package core

import (
	"testing"
	"time"

	"repro/internal/descriptor"
	"repro/internal/rtos"
)

// TestCrossCPUPortWiring: SHM is a global namespace, so a consumer pinned
// to CPU 1 may feed from a producer on CPU 0.
func TestCrossCPUPortWiring(t *testing.T) {
	_, k, d := newRig(t)
	producer := `<component name="src" type="periodic" cpuusage="0.05">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="1"/>
	  <outport name="feed" interface="RTAI.SHM" type="Integer" size="4"/>
	</component>`
	consumer := `<component name="snk" type="periodic" cpuusage="0.05">
	  <implementation bincode="x"/>
	  <periodictask frequence="50" runoncup="1" priority="1"/>
	  <inport name="feed" interface="RTAI.SHM" type="Integer" size="4"/>
	</component>`
	if err := d.Deploy(mustParse(t, producer)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, consumer)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "snk"); got != Active {
		t.Fatalf("cross-CPU consumer = %v", got)
	}
	info, _ := d.Component("snk")
	if info.Bindings["feed"] != "src" {
		t.Fatalf("bindings = %v", info.Bindings)
	}
	// Both tasks run on their own processors.
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	src, _ := k.Task("src")
	snk, _ := k.Task("snk")
	if src.Spec().CPU != 0 || snk.Spec().CPU != 1 {
		t.Fatalf("affinities = %d/%d", src.Spec().CPU, snk.Spec().CPU)
	}
	if src.Stats().Jobs == 0 || snk.Stats().Jobs == 0 {
		t.Fatal("tasks idle")
	}
}

// TestAperiodicComponentEndToEnd: an aperiodic DRCom component activates,
// its task awaits triggers, and the management interface sees its jobs.
func TestAperiodicComponentEndToEnd(t *testing.T) {
	_, k, d := newRig(t)
	var fired int
	if err := d.RegisterBody("x.Handler", func(*descriptor.Component) rtos.Body {
		return func(*rtos.JobContext) { fired++ }
	}); err != nil {
		t.Fatal(err)
	}
	src := `<component name="evh" desc="event handler" type="aperiodic">
	  <implementation bincode="x.Handler"/>
	  <aperiodictask runoncup="0" priority="0"/>
	</component>`
	if err := d.Deploy(mustParse(t, src)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "evh"); got != Active {
		t.Fatalf("state = %v", got)
	}
	task, ok := k.Task("evh")
	if !ok {
		t.Fatal("no task")
	}
	// No periodic releases happen on their own.
	if err := k.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("aperiodic fired %d times without trigger", fired)
	}
	// Interrupt-style triggers drive it.
	for i := 0; i < 5; i++ {
		if err := task.Trigger(); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 5 {
		t.Fatalf("fired = %d", fired)
	}
	// The snapshot is published at dispatch, so it trails by one job.
	mgmt, _ := d.Management("evh")
	if got := mgmt.Status().Jobs; got < 4 {
		t.Fatalf("management jobs = %d", got)
	}
	if task.Stats().Jobs != 5 {
		t.Fatalf("kernel jobs = %d", task.Stats().Jobs)
	}
}

// TestAperiodicHasNoBudgetContract: aperiodic contracts contribute no
// period to the admission view and never block periodic admission.
func TestAperiodicHasNoBudgetContract(t *testing.T) {
	_, _, d := newRig(t)
	src := `<component name="evh" type="aperiodic" cpuusage="0.3">
	  <implementation bincode="x"/>
	</component>`
	if err := d.Deploy(mustParse(t, src)); err != nil {
		t.Fatal(err)
	}
	view := d.GlobalView().All()
	if len(view) != 1 || view[0].Period != 0 {
		t.Fatalf("view = %+v", view)
	}
	// Its declared usage still counts against the utilization bound —
	// the budget is a promise regardless of release pattern.
	big := `<component name="big" type="periodic" cpuusage="0.8">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="1"/>
	</component>`
	if err := d.Deploy(mustParse(t, big)); err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, d, "big"); got != Satisfied {
		t.Fatalf("big = %v, want admission denial at 1.1 total", got)
	}
}

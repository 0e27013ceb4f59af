package drcom

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/rtos"
)

// Integration tests exercising the full stack end to end: framework →
// bundles → descriptors → DRCR → HRC → simulated kernel → IPC, plus the
// extensions (ADL, adaptation manager) layered on top.

const itCameraXML = `<component name="camera" type="periodic" cpuusage="0.10">
  <implementation bincode="it.Camera"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="frames" interface="RTAI.SHM" type="Byte" size="64"/>
  <property name="drcom.exectime.us" type="Integer" value="50"/>
</component>`

const itSinkXML = `<component name="sink" type="periodic" cpuusage="0.05">
  <implementation bincode="it.Sink"/>
  <periodictask frequence="50" runoncup="0" priority="3"/>
  <inport name="frames" interface="RTAI.SHM" type="Byte" size="64"/>
  <property name="drcom.exectime.us" type="Integer" value="20"/>
</component>`

const itAppXML = `<application name="itpipe">
  <member component="camera"/>
  <member component="sink"/>
  <connection from="camera/frames" to="sink/frames"/>
</application>`

func TestIntegrationADLApplication(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	var produced, consumed int
	if err := sys.RegisterBody("it.Camera", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM("frames"); err == nil {
				_ = shm.Set(0, int64(j.Index%256))
				produced++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterBody("it.Sink", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if shm, err := j.Kernel.IPC().SHM("frames"); err == nil {
				if _, err := shm.Get(0); err == nil {
					consumed++
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	if err := sys.DeployApplication(itAppXML, []string{itCameraXML, itSinkXML}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"camera", "sink"} {
		if info, _ := sys.Component(name); info.State != Active {
			t.Fatalf("%s = %v", name, info.State)
		}
	}
	if err := sys.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if produced < 90 || consumed < 45 {
		t.Fatalf("produced %d consumed %d", produced, consumed)
	}

	// Invalid application: missing connection coverage.
	badApp := `<application name="bad"><member component="sink"/></application>`
	sinkOnly := `<component name="sink2" type="periodic" cpuusage="0.05">
	  <implementation bincode="x"/>
	  <periodictask frequence="50" runoncup="0" priority="3"/>
	  <inport name="frames" interface="RTAI.SHM" type="Byte" size="64"/>
	</component>`
	_ = sinkOnly
	if err := sys.DeployApplication(badApp, []string{itSinkXML}); err == nil {
		t.Fatal("invalid application deployed")
	}
}

func TestIntegrationAdaptationManagerOnSystem(t *testing.T) {
	sys, err := NewSystem(Config{
		Seed:       33,
		Internal:   Static{AdmitAll: true, Label: "open"},
		ExecJitter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mk := func(name string, usage float64, prio, imp int) string {
		return fmt.Sprintf(`<component name="%s" type="periodic" cpuusage="%.2f" importance="%d">
		  <implementation bincode="x"/>
		  <periodictask frequence="100" runoncup="0" priority="%d"/>
		</component>`, name, usage, imp, prio)
	}
	if err := sys.DeployXML(mk("main", 0.6, 1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(mk("side", 0.6, 2, 1)); err != nil {
		t.Fatal(err)
	}
	mgr, err := adapt.New(sys.DRCR(), &adapt.ImportanceShedding{HealthyChecks: 100}, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	if err := sys.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("side"); info.State != Suspended {
		t.Fatalf("side = %v, want shed", info.State)
	}
	if info, _ := sys.Component("main"); info.State != Active {
		t.Fatalf("main = %v", info.State)
	}
}

// TestIntegrationLoadModeSwitchUnderDeployment drives the full §4
// storyline in one system: deploy, measure light, switch to stress,
// measure again, hot-remove and redeploy under stress.
func TestIntegrationLoadModeSwitchUnderDeployment(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.DeployXML(itCameraXML); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	task, _ := sys.Kernel().Task("camera")
	lightMean := task.Stats().Latency.Average

	sys.SetLoadMode(StressLoad)
	task.ResetStats()
	if err := sys.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	stressMean := task.Stats().Latency.Average
	if lightMean < -5000 || lightMean > 5000 {
		t.Fatalf("light mean = %v", lightMean)
	}
	if stressMean > -15000 {
		t.Fatalf("stress mean = %v", stressMean)
	}

	// Hot redeployment under stress keeps working.
	if err := sys.Remove("camera"); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(itCameraXML); err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("camera"); info.State != Active {
		t.Fatalf("redeployed camera = %v", info.State)
	}
}

// TestIntegrationIPCTeardownLeavesNoResidue repeatedly cycles a pipeline
// and checks that every activation/deactivation pair leaves the IPC
// namespace clean.
func TestIntegrationIPCTeardownLeavesNoResidue(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 20; i++ {
		if err := sys.DeployXML(itCameraXML); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := sys.DeployXML(itSinkXML); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := sys.Run(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := sys.Remove("camera"); err != nil {
			t.Fatal(err)
		}
		if err := sys.Remove("sink"); err != nil {
			t.Fatal(err)
		}
		shms, boxes := sys.Kernel().IPC().Names()
		if len(shms) != 0 || len(boxes) != 0 {
			t.Fatalf("cycle %d: IPC residue: shm=%v boxes=%v", i, shms, boxes)
		}
		if len(sys.Kernel().Tasks()) != 0 {
			t.Fatalf("cycle %d: task residue: %v", i, sys.Kernel().Tasks())
		}
	}
}

// TestIntegrationMailboxPortTransport runs a producer/consumer pair over
// an RTAI.Mailbox port instead of SHM.
func TestIntegrationMailboxPortTransport(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 39})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	producer := `<component name="prod" type="periodic" cpuusage="0.02">
	  <implementation bincode="it.Prod"/>
	  <periodictask frequence="100" runoncup="0" priority="1"/>
	  <outport name="evq" interface="RTAI.Mailbox" type="Byte" size="4"/>
	</component>`
	consumer := `<component name="cons" type="periodic" cpuusage="0.02">
	  <implementation bincode="it.Cons"/>
	  <periodictask frequence="20" runoncup="0" priority="2"/>
	  <inport name="evq" interface="RTAI.Mailbox" type="Byte" size="4"/>
	</component>`
	var received int
	if err := sys.RegisterBody("it.Prod", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			if box, err := j.Kernel.IPC().Mailbox("evq"); err == nil {
				_ = box.Send([]byte{byte(j.Index)}) // full box drops, as RTAI would
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterBody("it.Cons", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			box, err := j.Kernel.IPC().Mailbox("evq")
			if err != nil {
				return
			}
			for {
				if _, err := box.Receive(); err != nil {
					return
				}
				received++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(producer); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(consumer); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// 100 Hz producer into a 4-deep box drained at 20 Hz: five arrivals
	// per drain against four slots, so the consumer sees a bounded stream
	// and the mailbox counts the overflow drops.
	if received < 50 {
		t.Fatalf("received = %d", received)
	}
	box, err := sys.Kernel().IPC().Mailbox("evq")
	if err != nil {
		t.Fatal(err)
	}
	sent, got, dropped := box.Stats()
	if sent == 0 || got == 0 || dropped == 0 {
		t.Fatalf("mailbox stats sent=%d received=%d dropped=%d", sent, got, dropped)
	}
}

// TestIntegrationEventLogLegality replays a long random-ish churn and
// asserts every logged transition is legal per Figure 1.
func TestIntegrationEventLogLegality(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.DeployXML(itCameraXML); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(itSinkXML); err != nil {
		t.Fatal(err)
	}
	ops := []func() error{
		func() error { return sys.Suspend("camera") },
		func() error { return sys.Resume("camera") },
		func() error { return sys.Disable("sink") },
		func() error { return sys.Enable("sink") },
		func() error { return sys.Disable("camera") },
		func() error { return sys.Enable("camera") },
		func() error { return sys.Run(30 * time.Millisecond) },
	}
	for i := 0; i < 50; i++ {
		_ = ops[i%len(ops)]() // state-dependent failures are fine
	}
	for _, ev := range sys.Events() {
		if ev.From != 0 && !core.CanTransition(ev.From, ev.To) {
			t.Fatalf("illegal transition: %v", ev)
		}
	}
}

// TestIntegrationEDFSystem runs a DRCom system on the EDF kernel: the
// same descriptors and DRCR, different dispatch discipline underneath.
func TestIntegrationEDFSystem(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 45, Policy: EarliestDeadlineFirst, ExecJitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// A rate-inverted pair at 90% density: infeasible under the declared
	// fixed priorities (the short task waits out the long job) but
	// comfortably schedulable under EDF, with slack for release jitter.
	long := `<component name="long" type="periodic" cpuusage="0.45">
	  <implementation bincode="x"/>
	  <periodictask frequence="100" runoncup="0" priority="1"/>
	</component>`
	short := `<component name="short" type="periodic" cpuusage="0.45">
	  <implementation bincode="x"/>
	  <periodictask frequence="250" runoncup="0" priority="2"/>
	</component>`
	if err := sys.DeployXML(long); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(short); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, task := range sys.Kernel().Tasks() {
		st := task.Stats()
		if st.Misses+st.Skips != 0 {
			t.Fatalf("%s violated %d contracts under EDF", task.Name(), st.Misses+st.Skips)
		}
	}
}

package drcom

import (
	"testing"
	"time"

	"repro/internal/descriptor"
)

const cameraXML = `<component name="camera" desc="smart camera" type="periodic" cpuusage="0.1">
  <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
</component>`

const viewerXML = `<component name="viewer" type="periodic" cpuusage="0.02">
  <implementation bincode="demo.Viewer"/>
  <periodictask frequence="10" runoncup="0" priority="3"/>
  <inport name="images" interface="RTAI.SHM" type="Byte" size="400"/>
</component>`

func TestSystemQuickstart(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.DeployXML(cameraXML); err != nil {
		t.Fatal(err)
	}
	info, ok := sys.Component("camera")
	if !ok || info.State != Active {
		t.Fatalf("camera = %+v", info)
	}
	if err := sys.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	mgmt, ok := sys.Management("camera")
	if !ok {
		t.Fatal("no management service")
	}
	if st := mgmt.Status(); st.Jobs < 90 {
		t.Fatalf("camera jobs = %d", st.Jobs)
	}
	if sys.Now() != Time(time.Second) {
		t.Fatalf("Now = %v", sys.Now())
	}
}

func TestSystemDeployBundleAndCascade(t *testing.T) {
	sys, err := NewSystem(Config{NumCPUs: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.DeployBundle("demo.viewer", "1.0", map[string]string{
		"OSGI-INF/viewer.xml": viewerXML,
	}); err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("viewer"); info.State != Unsatisfied {
		t.Fatalf("viewer = %v", info.State)
	}
	camBundle, err := sys.DeployBundle("demo.camera", "1.0", map[string]string{
		"OSGI-INF/camera.xml": cameraXML,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("viewer"); info.State != Active {
		t.Fatalf("viewer after camera = %v", info.State)
	}
	if err := camBundle.Stop(); err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("viewer"); info.State != Unsatisfied {
		t.Fatalf("viewer after camera stop = %v", info.State)
	}
	if _, ok := sys.Component("camera"); ok {
		t.Fatal("camera survived bundle stop")
	}
}

func TestSystemDeployBundleValidation(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.DeployBundle("b", "1.0", nil); err == nil {
		t.Fatal("empty bundle accepted")
	}
	if _, err := sys.DeployBundle("b", "bogus", map[string]string{"x": cameraXML}); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := sys.DeployBundle("b", "1.0", map[string]string{"x": "<other/>"}); err == nil {
		t.Fatal("non-DRCom resource accepted")
	}
}

func TestSystemCustomResolver(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	denyCameras := Func{
		Label: "no-cameras",
		F: func(v View, c Contract) Decision {
			if c.Name == "camera" {
				return Decision{Admit: false, Reason: "cameras vetoed"}
			}
			return Decision{Admit: true}
		},
	}
	remove, err := sys.RegisterResolver(denyCameras)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(cameraXML); err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("camera"); info.State != Satisfied {
		t.Fatalf("vetoed camera = %v", info.State)
	}
	// Withdrawing the veto re-resolves and activates.
	remove()
	if info, _ := sys.Component("camera"); info.State != Active {
		t.Fatalf("camera after veto removal = %v", info.State)
	}
	if _, err := sys.RegisterResolver(nil); err == nil {
		t.Fatal("nil resolver accepted")
	}
}

func TestSystemSuspendResumeEnableDisable(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.DeployXML(cameraXML); err != nil {
		t.Fatal(err)
	}
	if err := sys.Suspend("camera"); err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("camera"); info.State != Suspended {
		t.Fatalf("state = %v", info.State)
	}
	if err := sys.Resume("camera"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Disable("camera"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Enable("camera"); err != nil {
		t.Fatal(err)
	}
	if info, _ := sys.Component("camera"); info.State != Active {
		t.Fatalf("state after cycle = %v", info.State)
	}
	if err := sys.Remove("camera"); err != nil {
		t.Fatal(err)
	}
	if len(sys.Components()) != 0 {
		t.Fatal("components left after Remove")
	}
	if len(sys.Events()) == 0 {
		t.Fatal("no events logged")
	}
}

func TestSystemGlobalViewAndLoadMode(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.DeployXML(cameraXML); err != nil {
		t.Fatal(err)
	}
	view := sys.GlobalView().OnCPU(0)
	if len(view) != 1 || view[0].CPUUsage != 0.1 {
		t.Fatalf("view = %+v", view)
	}
	sys.SetLoadMode(StressLoad)
	if err := sys.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	task, _ := sys.Kernel().Task("camera")
	if mean := task.Stats().Latency.Average; mean > -15000 {
		t.Fatalf("stress mean = %v", mean)
	}
}

func TestSystemListener(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	var events []Event
	remove := sys.AddListener(func(ev Event) { events = append(events, ev) })
	defer remove()
	if err := sys.DeployXML(cameraXML); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("events = %v", events)
	}
	if events[len(events)-1].To != Active {
		t.Fatalf("last = %v", events[len(events)-1])
	}
}

func TestSystemCloseIdempotent(t *testing.T) {
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DeployXML(cameraXML); err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close()
	if _, ok := sys.Kernel().Task("camera"); ok {
		t.Fatal("task survived Close")
	}
}

func TestDescriptorReexportsUsable(t *testing.T) {
	// The facade accepts any descriptor the descriptor package validates.
	if _, err := descriptor.Parse(cameraXML); err != nil {
		t.Fatal(err)
	}
}

package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// The smart-camera pipeline of the paper's motivating ARFLEX scenario
// (examples/smartcamera), reused here as the reference workload for
// determinism digests: three periodic components over two SHM ports with
// real data flow, lifecycle churn, and a management command mid-run.
const (
	CameraXML = `<component name="camera" desc="smart camera controller" type="periodic" cpuusage="0.1">
  <implementation bincode="ua.pats.demo.smartcamera.RTComponent"/>
  <periodictask frequence="100" runoncup="0" priority="2"/>
  <outport name="frames" interface="RTAI.SHM" type="Byte" size="400"/>
  <property name="gain" type="Integer" value="1"/>
</component>`

	ROIXML = `<component name="roisel" desc="region of interest selector" type="periodic" cpuusage="0.05">
  <implementation bincode="ua.pats.demo.smartcamera.ROISelector"/>
  <periodictask frequence="100" runoncup="0" priority="3"/>
  <inport name="frames" interface="RTAI.SHM" type="Byte" size="400"/>
  <outport name="roi" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`

	PanelXML = `<component name="panel" desc="operator display" type="periodic" cpuusage="0.01">
  <implementation bincode="ua.pats.demo.smartcamera.Panel"/>
  <periodictask frequence="10" runoncup="0" priority="4"/>
  <inport name="roi" interface="RTAI.SHM" type="Integer" size="4"/>
</component>`
)

// CameraDigest summarises one reference run: a SHA-256 over the scheduler
// trace and one over the observable metrics (task stats, component states,
// lifecycle transitions). Two runs with the same seed must agree byte for
// byte, and a refactor of the simulation core must reproduce the digests
// captured before it.
type CameraDigest struct {
	Trace   string // hex SHA-256 of the formatted scheduler trace
	Metrics string // hex SHA-256 of the formatted metrics/state report
	Events  uint64 // total simulation events fired
}

// RunCameraDigest executes the smart-camera reference workload for the
// given simulated duration and digests everything observable about it.
func RunCameraDigest(seed uint64, runFor time.Duration) (CameraDigest, error) {
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{Seed: seed})
	tr := k.StartTrace(0)
	d, err := core.New(fw, k, core.Options{})
	if err != nil {
		return CameraDigest{}, err
	}
	defer d.Close()

	register := func(bincode string, f core.BodyFactory) error {
		return d.RegisterBody(bincode, f)
	}
	if err := register("ua.pats.demo.smartcamera.RTComponent", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			shm, err := j.Kernel.IPC().SHM("frames")
			if err != nil {
				return
			}
			_ = shm.Set(int(j.Index%400), 200)
		}
	}); err != nil {
		return CameraDigest{}, err
	}
	if err := register("ua.pats.demo.smartcamera.ROISelector", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			frames, err := j.Kernel.IPC().SHM("frames")
			if err != nil {
				return
			}
			roi, err := j.Kernel.IPC().SHM("roi")
			if err != nil {
				return
			}
			data := frames.ReadAll()
			best, bestIdx := int64(-1), 0
			for i, v := range data {
				if v > best {
					best, bestIdx = v, i
				}
			}
			_ = roi.Set(0, int64(bestIdx%20))
			_ = roi.Set(1, int64(bestIdx/20))
		}
	}); err != nil {
		return CameraDigest{}, err
	}
	if err := register("ua.pats.demo.smartcamera.Panel", func(*descriptor.Component) rtos.Body {
		return func(j *rtos.JobContext) {
			roi, err := j.Kernel.IPC().SHM("roi")
			if err != nil {
				return
			}
			_, _ = roi.Get(0)
			_, _ = roi.Get(1)
		}
	}); err != nil {
		return CameraDigest{}, err
	}

	for _, src := range []string{CameraXML, ROIXML, PanelXML} {
		desc, err := descriptor.Parse(src)
		if err != nil {
			return CameraDigest{}, err
		}
		if err := d.Deploy(desc); err != nil {
			return CameraDigest{}, err
		}
	}

	half := runFor / 2
	if err := k.Run(half); err != nil {
		return CameraDigest{}, err
	}
	// Mid-run churn: a management command, a suspend/resume cycle, and a
	// lifecycle round trip, so the digest covers the DRCR paths too.
	if mgmt, ok := d.Management("camera"); ok {
		_ = mgmt.SetProperty("gain", "2")
	}
	if err := d.Suspend("roisel"); err != nil {
		return CameraDigest{}, err
	}
	if err := k.Run(runFor - half); err != nil {
		return CameraDigest{}, err
	}
	if err := d.Resume("roisel"); err != nil {
		return CameraDigest{}, err
	}
	if err := k.Run(half); err != nil {
		return CameraDigest{}, err
	}

	var tb strings.Builder
	for _, ev := range tr.Events() {
		fmt.Fprintf(&tb, "%d %v %s %d\n", int64(ev.At), ev.Kind, ev.Task, ev.CPU)
	}

	var mb strings.Builder
	for _, t := range k.Tasks() {
		st := t.Stats()
		fmt.Fprintf(&mb, "task %s state=%v jobs=%d misses=%d skips=%d lat=%v resp=%v\n",
			st.Name, st.State, st.Jobs, st.Misses, st.Skips, st.Latency, st.Response)
	}
	for _, info := range d.Components() {
		fmt.Fprintf(&mb, "comp %s state=%v bindings=%v usage=%.4f\n",
			info.Name, info.State, info.Bindings, info.CPUUsage)
	}
	for _, ev := range d.Events() {
		fmt.Fprintf(&mb, "event %d %s %v->%v %s\n",
			int64(ev.At), ev.Component, ev.From, ev.To, ev.Reason)
	}
	view := d.GlobalView()
	admitted := view.All()
	fmt.Fprintf(&mb, "view cpus=%d admitted=%d\n", view.NumCPUs, len(admitted))
	for _, c := range admitted {
		fmt.Fprintf(&mb, "contract %s cpu=%d prio=%d usage=%.4f period=%v\n",
			c.Name, c.CPU, c.Priority, c.CPUUsage, c.Period)
	}

	th := sha256.Sum256([]byte(tb.String()))
	mh := sha256.Sum256([]byte(mb.String()))
	return CameraDigest{
		Trace:   hex.EncodeToString(th[:]),
		Metrics: hex.EncodeToString(mh[:]),
		Events:  k.Clock().Fired(),
	}, nil
}

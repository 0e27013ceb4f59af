// Package workload builds the evaluation workloads of the paper's §4: the
// two-component latency application (a 1000 Hz calculation task feeding a
// 4 Hz display task over shared memory, converted from RTAI's performance
// test suite) in both the pure-RTAI and the declarative hybrid (DRCom)
// implementations, the stress load, and the §4.3 dynamicity scenario.
package workload

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/metrics"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
	"repro/internal/rtos/ipc"
)

// CalcFrequencyHz and DisplayFrequencyHz are the paper's §4.2 rates.
const (
	CalcFrequencyHz    = 1000
	DisplayFrequencyHz = 4
)

// CalcExecTime is the simulated computing job's cost per 1 ms period.
const CalcExecTime = 30 * time.Microsecond

// DisplayExecTime is the display task's cost per 250 ms period.
const DisplayExecTime = 10 * time.Microsecond

// LatencySHM is the shared-memory port between the two tasks.
const LatencySHM = "lat"

// CalcXML and DisplayXML are the DRCom descriptors of the §4.2
// application, delivered as individual bundles in the paper.
const CalcXML = `<component name="calc" desc="simulated computing job at 1000 Hz" type="periodic" cpuusage="0.05">
  <implementation bincode="rtai.demo.Calculation"/>
  <periodictask frequence="1000" runoncup="0" priority="1"/>
  <outport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <property name="drcom.exectime.us" type="Integer" value="30"/>
</component>`

const DisplayXML = `<component name="disp" desc="display scheduling latency at 4 Hz" type="periodic" cpuusage="0.01">
  <implementation bincode="rtai.demo.Display"/>
  <periodictask frequence="4" runoncup="0" priority="2"/>
  <inport name="lat" interface="RTAI.SHM" type="Integer" size="100"/>
  <property name="drcom.exectime.us" type="Integer" value="10"/>
</component>`

// replicaPairXML renders one background calc/disp replica pair pinned
// to a CPU: the §4.2 rates and budgets under unique names with a
// replica-private SHM topic, and an unregistered bincode, so multi-CPU
// campaigns get real per-CPU scheduling work without touching the
// foreground scenario.
func replicaPairXML(i, cpu int) [2]string {
	shm := fmt.Sprintf("lt%02d", i)
	calc := fmt.Sprintf(`<component name="ca%02d" desc="replica computing job" type="periodic" cpuusage="0.05">
  <implementation bincode="rtai.demo.Load"/>
  <periodictask frequence="1000" runoncup="%d" priority="1"/>
  <outport name=%q interface="RTAI.SHM" type="Integer" size="100"/>
  <property name="drcom.exectime.us" type="Integer" value="30"/>
</component>`, i, cpu, shm)
	disp := fmt.Sprintf(`<component name="di%02d" desc="replica display" type="periodic" cpuusage="0.01">
  <implementation bincode="rtai.demo.Load"/>
  <periodictask frequence="4" runoncup="%d" priority="2"/>
  <inport name=%q interface="RTAI.SHM" type="Integer" size="100"/>
  <property name="drcom.exectime.us" type="Integer" value="10"/>
</component>`, i, cpu, shm)
	return [2]string{calc, disp}
}

// deployReplicas spreads n replica pairs across CPUs 1..numCPU-1.
func deployReplicas(d *core.DRCR, n, numCPU int) error {
	for i := 0; i < n; i++ {
		pair := replicaPairXML(i, 1+i%(numCPU-1))
		for _, src := range pair {
			desc, err := descriptor.Parse(src)
			if err != nil {
				return err
			}
			if err := d.Deploy(desc); err != nil {
				return err
			}
		}
	}
	return nil
}

// LatencyConfig parameterises one Table 1 cell pair.
type LatencyConfig struct {
	// Mode is the load regime (light or stress).
	Mode rtos.LoadMode
	// Hybrid selects the DRCom/HRC implementation; false runs pure RTAI
	// user-mode tasks with no management plumbing.
	Hybrid bool
	// Samples is the number of post-warm-up latency observations to
	// collect from the 1000 Hz task. Default 60000 (one simulated
	// minute, as a long run of RTAI's latency test).
	Samples int
	// Warmup discards the initial transient. Default 100 ms.
	Warmup time.Duration
	// Seed drives all randomness. Default 1.
	Seed uint64
	// NumCPUs sizes the simulated machine (default 1, matching the
	// paper's single-CPU testbed).
	NumCPUs int
}

func (c *LatencyConfig) applyDefaults() {
	if c.Samples <= 0 {
		c.Samples = 60000
	}
	if c.Warmup <= 0 {
		c.Warmup = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mode != rtos.StressLoad {
		c.Mode = rtos.LightLoad
	}
}

// LatencyResult is one Table 1 row plus auxiliary detail.
type LatencyResult struct {
	Row     metrics.Row
	Display metrics.Row
	Misses  uint64
	Skips   uint64
	Samples []int64
}

// Label renders the Table 1 row label for a configuration.
func (c LatencyConfig) Label() string {
	impl := "Pure RTAI"
	if c.Hybrid {
		impl = "HRC"
	}
	return fmt.Sprintf("%s (%s)", impl, c.Mode)
}

// RunLatency executes the §4.2 application and returns the 1000 Hz task's
// scheduling-latency statistics, the quantity Table 1 reports.
func RunLatency(cfg LatencyConfig) (LatencyResult, error) {
	cfg.applyDefaults()
	if cfg.Hybrid {
		return runHybridLatency(cfg)
	}
	return runPureLatency(cfg)
}

// runPureLatency codes the two tasks directly against the RTAI kernel, the
// paper's "Pure RTAI user model" baseline.
func runPureLatency(cfg LatencyConfig) (LatencyResult, error) {
	k := rtos.NewKernel(rtos.Config{Mode: cfg.Mode, Seed: cfg.Seed,
		NumCPUs: cfg.NumCPUs})
	if err := addStressLoad(k, cfg.Mode); err != nil {
		return LatencyResult{}, err
	}
	shm, err := k.IPC().CreateSHM(LatencySHM, ipc.Integer, 100)
	if err != nil {
		return LatencyResult{}, err
	}
	calc, err := k.CreateTask(rtos.TaskSpec{
		Name: "calc", Type: rtos.Periodic, Priority: 1,
		Period:   time.Second / CalcFrequencyHz,
		ExecTime: CalcExecTime, ExecJitter: 0.05,
		Body: func(j *rtos.JobContext) {
			_ = shm.Set(0, int64(j.Now.Sub(j.Nominal)))
		},
	})
	if err != nil {
		return LatencyResult{}, err
	}
	disp, err := k.CreateTask(rtos.TaskSpec{
		Name: "disp", Type: rtos.Periodic, Priority: 2,
		Period:   time.Second / DisplayFrequencyHz,
		ExecTime: DisplayExecTime, ExecJitter: 0.05,
		Body: func(j *rtos.JobContext) {
			_, _ = shm.Get(0) // "display" the last latency value
		},
	})
	if err != nil {
		return LatencyResult{}, err
	}
	if err := calc.Start(); err != nil {
		return LatencyResult{}, err
	}
	if err := disp.Start(); err != nil {
		return LatencyResult{}, err
	}
	return collect(k, calc, disp, cfg)
}

// runHybridLatency drives the identical workload through the full
// declarative stack: framework, descriptors, DRCR admission, HRC bridge.
// Its noise stream is derived from (but distinct from) the pure run's, so
// the two rows relate like two separate runs on the paper's testbed
// rather than sharing draws sample for sample.
func runHybridLatency(cfg LatencyConfig) (LatencyResult, error) {
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{Mode: cfg.Mode, Seed: cfg.Seed ^ 0x4852_4331, // "HRC1"
		NumCPUs: cfg.NumCPUs})
	if err := addStressLoad(k, cfg.Mode); err != nil {
		return LatencyResult{}, err
	}
	d, err := core.New(fw, k, core.Options{Internal: policy.Utilization{}})
	if err != nil {
		return LatencyResult{}, err
	}
	defer d.Close()
	if err := d.RegisterBody("rtai.demo.Calculation", calcBody); err != nil {
		return LatencyResult{}, err
	}
	if err := d.RegisterBody("rtai.demo.Display", displayBody(nil)); err != nil {
		return LatencyResult{}, err
	}
	for _, src := range []string{CalcXML, DisplayXML} {
		desc, err := descriptor.Parse(src)
		if err != nil {
			return LatencyResult{}, err
		}
		if err := d.Deploy(desc); err != nil {
			return LatencyResult{}, err
		}
	}
	calc, ok := k.Task("calc")
	if !ok {
		return LatencyResult{}, fmt.Errorf("workload: calc not activated")
	}
	disp, ok := k.Task("disp")
	if !ok {
		return LatencyResult{}, fmt.Errorf("workload: disp not activated")
	}
	return collect(k, calc, disp, cfg)
}

func collect(k *rtos.Kernel, calc, disp *rtos.Task, cfg LatencyConfig) (LatencyResult, error) {
	if err := k.Run(cfg.Warmup); err != nil {
		return LatencyResult{}, err
	}
	calc.ResetStats()
	disp.ResetStats()
	period := time.Second / CalcFrequencyHz
	// Run in slabs until enough samples accumulated.
	for calc.Stats().Latency.N < cfg.Samples {
		remaining := cfg.Samples - calc.Stats().Latency.N
		if err := k.Run(time.Duration(remaining) * period); err != nil {
			return LatencyResult{}, err
		}
	}
	st := calc.Stats()
	row := st.Latency
	row.Label = cfg.Label()
	return LatencyResult{
		Row:     row,
		Display: disp.Stats().Latency,
		Misses:  st.Misses,
		Skips:   st.Skips,
		Samples: calc.LatencySamples(),
	}, nil
}

// addStressLoad attaches the §4.4 stress commands in stress mode: actual
// lowest-priority hog tasks saturating the Linux band. They exercise the
// dual-kernel property mechanically (RT dispatch is unaffected because
// every RT priority outranks them); the µs-level timing effects of a hot
// CPU live in the calibrated stress timing model.
func addStressLoad(k *rtos.Kernel, mode rtos.LoadMode) error {
	if mode != rtos.StressLoad {
		return nil
	}
	bl, err := NewBackgroundLoad(k, 0, 3) // "the following three commands"
	if err != nil {
		return err
	}
	return bl.Start()
}

// Table1Configs lists the four configurations of the paper's Table 1 in
// the paper's order: HRC (light), Pure RTAI (light), HRC (stress),
// Pure RTAI (stress).
func Table1Configs(samples int, seed uint64) []LatencyConfig {
	return []LatencyConfig{
		{Hybrid: true, Mode: rtos.LightLoad, Samples: samples, Seed: seed},
		{Hybrid: false, Mode: rtos.LightLoad, Samples: samples, Seed: seed},
		{Hybrid: true, Mode: rtos.StressLoad, Samples: samples, Seed: seed},
		{Hybrid: false, Mode: rtos.StressLoad, Samples: samples, Seed: seed},
	}
}

// Package rtos is a deterministic discrete-event simulation of the RTAI
// real-time kernel the paper runs on: per-CPU fixed-priority preemptive
// scheduling with a round-robin quantum among equal priorities (the
// paper's test scheduler), periodic and aperiodic tasks, nam2num-style
// six-character task names, SHM and mailbox IPC, and a calibrated
// periodic-timer noise model reproducing the light/stress regimes of the
// paper's Table 1.
//
// The simulation runs in virtual time (package sim); given the same seed
// it is reproducible bit-for-bit.
package rtos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/rtos/ipc"
	"repro/internal/sim"
)

// SchedPolicy selects the dispatcher's ordering discipline.
type SchedPolicy int

// Scheduling policies.
const (
	// FixedPriority is RTAI's native discipline (with round-robin among
	// equal priorities), the paper's test configuration.
	FixedPriority SchedPolicy = iota
	// EarliestDeadlineFirst dispatches by absolute deadline; an
	// alternative the framework's pluggable design anticipates.
	EarliestDeadlineFirst
)

func (p SchedPolicy) String() string {
	if p == EarliestDeadlineFirst {
		return "edf"
	}
	return "fp"
}

// Config parameterises a kernel.
type Config struct {
	// NumCPUs is the processor count; the paper's testbed is a dual-core
	// T5500. Default 1.
	NumCPUs int
	// Quantum is the round-robin slice for equal-priority tasks. Zero
	// selects the 100µs default; a negative value disables rotation
	// (FIFO within a priority level).
	Quantum time.Duration
	// Seed feeds all pseudo-random streams. Default 1.
	Seed uint64
	// Mode selects the calibrated timing model; default LightLoad.
	Mode LoadMode
	// Timing overrides the mode-derived timing model when non-nil.
	Timing *TimingModel
	// Policy selects the scheduling discipline; default FixedPriority.
	Policy SchedPolicy
	// Shards partitions the simulated CPUs across real OS threads: shard
	// s owns the CPUs with id ≡ s (mod Shards), each with its own event
	// clock, job pool and trace buffer, advancing in conservative
	// lookahead windows bounded by the next control-plane event (see
	// shard.go). 0 or 1 selects the sequential engine; values above
	// NumCPUs are clamped to NumCPUs.
	Shards int
	// Lookahead bounds the width of a sharded execution window, and with
	// it the worst-case latency of cross-shard TriggerAsync delivery.
	// Zero selects 1ms. Ignored by the sequential engine.
	Lookahead time.Duration
}

func (c *Config) applyDefaults() {
	if c.NumCPUs <= 0 {
		c.NumCPUs = 1
	}
	switch {
	case c.Quantum == 0:
		c.Quantum = 100 * time.Microsecond
	case c.Quantum < 0:
		c.Quantum = 0 // FIFO within priority
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mode != LightLoad && c.Mode != StressLoad {
		c.Mode = LightLoad
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > c.NumCPUs {
		c.Shards = c.NumCPUs
	}
	if c.Lookahead <= 0 {
		c.Lookahead = time.Millisecond
	}
}

// Kernel is the simulated RTAI instance. Its management surface is not
// safe for concurrent use: the control plane is single-threaded by
// design, like the event loop of the real scheduler. With Config.Shards
// above one, Run internally executes the per-CPU schedules on parallel
// shard clocks between control-plane barriers; the only kernel APIs a
// task body may then touch from its shard are its own task, the IPC
// registry (whose objects are individually locked), and TriggerAsync.
type Kernel struct {
	clock   *sim.Clock // control clock; also shard 0's clock when Shards == 1
	cfg     Config
	mode    LoadMode
	timing  TimingModel
	rng     *sim.Rand
	quantum sim.Duration
	policy  SchedPolicy
	cpus    []*cpu
	tasks   map[string]*Task
	reg     ipc.Registry
	tracer  *Tracer
	sink    TraceSink

	// Sharded-engine state (see shard.go). With one shard the window
	// loop is bypassed entirely and Run drives k.clock directly.
	shards     []*kshard
	lookahead  sim.Duration
	winRunning bool
	winWG      sync.WaitGroup
	mergeBuf   []TraceEvent

	// xs is the cross-shard trigger exchange: requests queue under mu
	// and are delivered, sorted by task name, at the next barrier.
	xs struct {
		mu        sync.Mutex
		pending   []string
		batch     []string
		sent      uint64
		delivered uint64
		dropped   uint64
	}
}

// NewKernel boots a kernel with the given configuration.
func NewKernel(cfg Config) *Kernel {
	cfg.applyDefaults()
	k := &Kernel{
		clock:   sim.NewClock(),
		cfg:     cfg,
		mode:    cfg.Mode,
		rng:     sim.NewRand(cfg.Seed),
		quantum: cfg.Quantum,
		policy:  cfg.Policy,
		tasks:   map[string]*Task{},
	}
	if cfg.Timing != nil {
		k.timing = *cfg.Timing
	} else {
		k.timing = TimingForMode(cfg.Mode)
	}
	k.lookahead = sim.Duration(cfg.Lookahead)
	k.shards = make([]*kshard, cfg.Shards)
	for s := range k.shards {
		sh := &kshard{}
		if cfg.Shards == 1 {
			// Sequential engine: one clock carries task and control
			// events alike, byte-identical to the pre-sharding kernel.
			sh.clk = k.clock
		} else {
			sh.clk = sim.NewClock()
		}
		sh.runFn = func() {
			sh.runWindow()
			k.winWG.Done()
		}
		k.shards[s] = sh
	}
	k.cpus = make([]*cpu, cfg.NumCPUs)
	for i := range k.cpus {
		c := &cpu{id: i}
		c.ready.edf = cfg.Policy == EarliestDeadlineFirst
		c.sh = k.shards[i%cfg.Shards]
		c.clk = c.sh.clk
		c.sh.cpus = append(c.sh.cpus, c)
		// Bind the slice-event handlers once; the dispatcher re-arms them
		// every slice without allocating fresh closures.
		c.completeFn = func(at sim.Time) {
			c.complEv = nil
			c.complete(k, at)
		}
		c.quantumFn = func(at sim.Time) {
			c.quantEv = nil
			c.rotate(k, at)
		}
		k.cpus[i] = c
	}
	return k
}

// Clock exposes the kernel's virtual clock — the control clock of a
// sharded kernel. Management-plane code (guards, injectors, samplers)
// must schedule here: control events double as the conservative barriers
// shard clocks synchronise on.
func (k *Kernel) Clock() *sim.Clock { return k.clock }

// Now returns the current virtual time of the control clock.
func (k *Kernel) Now() sim.Time { return k.clock.Now() }

// NumCPUs returns the processor count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// Mode returns the current load mode.
func (k *Kernel) Mode() LoadMode { return k.mode }

// Policy returns the scheduling discipline.
func (k *Kernel) Policy() SchedPolicy { return k.policy }

// SetLoadMode switches the load regime (and its calibrated timing model)
// at run time; in the paper this is the difference between an idle
// machine and stress commands saturating the Linux side.
func (k *Kernel) SetLoadMode(m LoadMode) {
	k.mode = m
	k.timing = TimingForMode(m)
}

// SetTimingModel installs an explicit timing model.
func (k *Kernel) SetTimingModel(tm TimingModel) { k.timing = tm }

// IPC returns the kernel's IPC registry (SHM segments and mailboxes).
func (k *Kernel) IPC() *ipc.Registry { return &k.reg }

// CreateTask registers a task; it starts in TaskCreated and does not run
// until Start.
func (k *Kernel) CreateTask(spec TaskSpec) (*Task, error) {
	if err := spec.validate(len(k.cpus)); err != nil {
		return nil, err
	}
	if _, dup := k.tasks[spec.Name]; dup {
		return nil, fmt.Errorf("rtos: task %q already exists", spec.Name)
	}
	t := &Task{
		k:     k,
		sh:    k.cpus[spec.CPU].sh,
		clk:   k.cpus[spec.CPU].clk,
		spec:  spec,
		state: TaskCreated,
		rng:   k.rng.Fork(),

		releaseLabel:  "release:" + spec.Name,
		completeLabel: "complete:" + spec.Name,
		quantumLabel:  "quantum:" + spec.Name,
	}
	t.releaseFn = t.fireRelease
	k.tasks[spec.Name] = t
	return t, nil
}

// Task looks up a live task by name.
func (k *Kernel) Task(name string) (*Task, bool) {
	t, ok := k.tasks[name]
	return t, ok
}

// Tasks returns all live tasks sorted by name.
func (k *Kernel) Tasks() []*Task {
	out := make([]*Task, 0, len(k.tasks))
	for _, t := range k.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.Name < out[j].spec.Name })
	return out
}

// Utilization reports the summed CPU demand of active periodic tasks on
// the given processor. The sum runs in task-name order: floating-point
// addition is order-sensitive, and map range order would otherwise leak
// nondeterminism into any digest or admission decision fed by it.
func (k *Kernel) Utilization(cpuID int) float64 {
	names := make([]string, 0, len(k.tasks))
	for name, t := range k.tasks {
		if t.spec.CPU == cpuID && t.state == TaskActive {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var u float64
	for _, name := range names {
		u += k.tasks[name].Utilization()
	}
	return u
}

// BusyTime reports the execution time a CPU has consumed so far.
func (k *Kernel) BusyTime(cpuID int) (time.Duration, error) {
	if cpuID < 0 || cpuID >= len(k.cpus) {
		return 0, fmt.Errorf("rtos: cpu %d out of range", cpuID)
	}
	return k.cpus[cpuID].busy, nil
}

// Run advances virtual time by d, executing all releases, dispatches and
// completions that fall in the window. A sharded kernel runs its shards
// in parallel between control-plane barriers (see shard.go).
func (k *Kernel) Run(d time.Duration) error {
	if len(k.shards) == 1 {
		return k.clock.RunFor(d)
	}
	return k.runWindows(k.clock.Now().Add(d))
}

// RunUntil advances virtual time to the absolute instant at.
func (k *Kernel) RunUntil(at sim.Time) error {
	if len(k.shards) == 1 {
		return k.clock.RunUntil(at)
	}
	return k.runWindows(at)
}

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
	"slices"
	"strings"
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
	// Shards is kept so existing configurations still compile.
	//
	// Deprecated: ignored. The kernel has one engine: a single event
	// clock carries task and control events alike. No layer of the
	// stack shards any more (core.Options.Shards is ignored too).
	Shards int
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
}

// Kernel is the simulated RTAI instance. It is not safe for concurrent
// use: like the event loop of the real scheduler, one goroutine drives
// it, and task bodies and clock handlers run on that goroutine inside
// Run. Distinct kernels share nothing and may run on distinct goroutines.
type Kernel struct {
	clock   *sim.Clock // carries every task, dispatcher and control event
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

	// freeJobs is the job pool; steady-state release → dispatch →
	// complete cycles allocate nothing.
	freeJobs *job

	// triggers is the TriggerAsync conservation ledger.
	triggers struct{ sent, delivered, dropped uint64 }

	// byName is the live tasks in name order, rebuilt from tasks on the
	// first read after a create or delete marks it stale: a sorted
	// insert per create or delete costs more, at a few thousand tasks,
	// than the management operation around it.
	byName      []*Task
	byNameDirty bool
}

// NewKernel boots a kernel with the given configuration.
func NewKernel(cfg Config) *Kernel {
	cfg.applyDefaults()
	k := &Kernel{
		clock:   sim.NewClock(),
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
	k.cpus = make([]*cpu, cfg.NumCPUs)
	for i := range k.cpus {
		c := &cpu{id: i}
		c.ready.edf = cfg.Policy == EarliestDeadlineFirst
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

// Clock exposes the kernel's virtual clock. Management-plane code
// (guards, injectors, samplers) schedules its events here, interleaved
// with the dispatcher's.
func (k *Kernel) Clock() *sim.Clock { return k.clock }

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.clock.Now() }

// NumCPUs returns the processor count.
func (k *Kernel) NumCPUs() int { return len(k.cpus) }

// SetLoadMode switches the load regime (and its calibrated timing model)
// at run time; in the paper this is the difference between an idle
// machine and stress commands saturating the Linux side.
func (k *Kernel) SetLoadMode(m LoadMode) {
	k.mode = m
	k.timing = TimingForMode(m)
}

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
		spec:  spec,
		state: TaskCreated,
		rng:   k.rng.Fork(),

		releaseLabel:  "release:" + spec.Name,
		completeLabel: "complete:" + spec.Name,
		quantumLabel:  "quantum:" + spec.Name,
	}
	t.releaseFn = t.fireRelease
	k.tasks[spec.Name] = t
	k.staleTaskIndex()
	return t, nil
}

// removeTask drops a deleted task from the kernel's task map.
func (k *Kernel) removeTask(name string) {
	delete(k.tasks, name)
	k.staleTaskIndex()
}

// staleTaskIndex marks the name-ordered index stale and empties it, so
// it holds no deleted task until the next read rebuilds it.
func (k *Kernel) staleTaskIndex() {
	if !k.byNameDirty {
		clear(k.byName)
		k.byName = k.byName[:0]
		k.byNameDirty = true
	}
}

// tasksByName returns the name-ordered task index, re-sorting it first
// if a task was created or deleted since the last read. Callers must not
// modify it.
func (k *Kernel) tasksByName() []*Task {
	if k.byNameDirty {
		for _, t := range k.tasks {
			k.byName = append(k.byName, t)
		}
		slices.SortFunc(k.byName, func(a, b *Task) int { return strings.Compare(a.spec.Name, b.spec.Name) })
		k.byNameDirty = false
	}
	return k.byName
}

// Task looks up a live task by name.
func (k *Kernel) Task(name string) (*Task, bool) {
	t, ok := k.tasks[name]
	return t, ok
}

// Tasks returns all live tasks sorted by name.
func (k *Kernel) Tasks() []*Task {
	byName := k.tasksByName()
	return append(make([]*Task, 0, len(byName)), byName...)
}

// BusyTime reports the execution time a CPU has consumed so far.
func (k *Kernel) BusyTime(cpuID int) (time.Duration, error) {
	if cpuID < 0 || cpuID >= len(k.cpus) {
		return 0, fmt.Errorf("rtos: cpu %d out of range", cpuID)
	}
	return k.cpus[cpuID].busy, nil
}

// Run advances virtual time by d, executing all releases, dispatches and
// completions that fall in the window.
func (k *Kernel) Run(d time.Duration) error { return k.clock.RunFor(d) }

// RunUntil advances virtual time to the absolute instant at.
func (k *Kernel) RunUntil(at sim.Time) error { return k.clock.RunUntil(at) }

// EventsFired is the total number of simulation events executed so far;
// it equals Clock().Fired().
func (k *Kernel) EventsFired() uint64 { return k.clock.Fired() }

// TriggerAsync requests one job release of an aperiodic task by name and
// records the outcome in the conservation ledger. Unlike Task.Trigger it
// never fails: a request whose target is missing, periodic or not active
// counts as dropped. The release is delivered at once, so nothing is
// ever queued. Like the rest of the kernel it must be called from the
// goroutine driving the kernel: a task body, a clock handler, or code
// running between Run calls (such as a cluster barrier delivering a
// remote release).
func (k *Kernel) TriggerAsync(name string) {
	k.triggers.sent++
	if t, ok := k.tasks[name]; ok && t.Trigger() == nil {
		k.triggers.delivered++
	} else {
		k.triggers.dropped++
	}
}

// NoteDroppedTrigger records a trigger request that was lost before
// reaching the kernel — a release intent dropped by an external delivery
// fabric (a partitioned or lossy simulated network link) rather than by a
// missing or inactive target. It counts as sent and dropped, so the
// ledger still balances over the sender's intents. The same goroutine
// rule as TriggerAsync applies.
func (k *Kernel) NoteDroppedTrigger() {
	k.triggers.sent++
	k.triggers.dropped++
}

// TriggerStats reports the trigger conservation ledger. Every request is
// delivered or dropped on the spot, so queued is always 0 and
// sent == delivered + dropped + queued holds at every instant.
func (k *Kernel) TriggerStats() (sent, delivered, dropped, queued uint64) {
	return k.triggers.sent, k.triggers.delivered, k.triggers.dropped, 0
}

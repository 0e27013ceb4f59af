package rtos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// TaskType distinguishes periodic from aperiodic (event-triggered) tasks,
// matching the descriptor "type" attribute.
type TaskType int

// Task types.
const (
	Periodic TaskType = iota + 1
	Aperiodic
)

func (t TaskType) String() string {
	switch t {
	case Periodic:
		return "periodic"
	case Aperiodic:
		return "aperiodic"
	default:
		return fmt.Sprintf("TaskType(%d)", int(t))
	}
}

// TaskState is the RT-side task state.
type TaskState int

// Task states.
const (
	TaskCreated TaskState = iota + 1
	TaskActive
	TaskSuspended
	TaskDeleted
)

func (s TaskState) String() string {
	switch s {
	case TaskCreated:
		return "created"
	case TaskActive:
		return "active"
	case TaskSuspended:
		return "suspended"
	case TaskDeleted:
		return "deleted"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// Body is a task's functional routine, invoked once per job at first
// dispatch. The simulated execution cost is governed by TaskSpec, not by
// the wall-clock cost of the callback. The JobContext is valid only for
// the duration of the call: the kernel reuses it for later jobs, so a
// body copies whatever it keeps.
type Body func(job *JobContext)

// JobContext is what a task body sees for one job.
type JobContext struct {
	Kernel  *Kernel
	Task    *Task
	Now     sim.Time // dispatch time
	Nominal sim.Time // ideal release time
	Index   uint64   // job sequence number, from 0
}

// TaskSpec describes a real-time task, mirroring the real-time contract
// fields of a DRCom descriptor.
type TaskSpec struct {
	// Name is the RTAI task name, 1..6 characters, unique in the kernel.
	Name string
	// Type selects periodic or aperiodic release.
	Type TaskType
	// CPU pins the task to a processor (the descriptor's runoncup).
	CPU int
	// Priority orders dispatch; lower values are more urgent (RTAI
	// convention). Must be >= 0.
	Priority int
	// Period is the release period for periodic tasks.
	Period time.Duration
	// Phase delays the first release.
	Phase time.Duration
	// Deadline is the relative deadline; 0 means implicit (= Period).
	Deadline time.Duration
	// ExecTime is the mean simulated execution cost per job.
	ExecTime time.Duration
	// ExecJitter is the fractional standard deviation of the execution
	// cost (0.05 = 5%).
	ExecJitter float64
	// Overhead is additional per-job cost charged by wrappers (the HRC
	// management poll); kept separate so ablations can report it.
	Overhead time.Duration
	// Body is the functional routine; may be nil for pure load tasks.
	Body Body
}

func (s TaskSpec) validate(numCPU int) error {
	if len(s.Name) < 1 || len(s.Name) > 6 {
		return fmt.Errorf("rtos: task name %q must be 1..6 characters (RTAI nam2num)", s.Name)
	}
	if s.Type != Periodic && s.Type != Aperiodic {
		return fmt.Errorf("rtos: task %s: bad type %v", s.Name, s.Type)
	}
	if s.CPU < 0 || s.CPU >= numCPU {
		return fmt.Errorf("rtos: task %s: cpu %d out of range [0,%d)", s.Name, s.CPU, numCPU)
	}
	if s.Priority < 0 {
		return fmt.Errorf("rtos: task %s: negative priority %d", s.Name, s.Priority)
	}
	if s.Type == Periodic && s.Period <= 0 {
		return fmt.Errorf("rtos: task %s: periodic task needs positive period", s.Name)
	}
	if s.ExecTime < 0 || s.Overhead < 0 || s.Phase < 0 || s.Deadline < 0 {
		return fmt.Errorf("rtos: task %s: negative durations", s.Name)
	}
	if s.ExecJitter < 0 || s.ExecJitter > 1 {
		return fmt.Errorf("rtos: task %s: exec jitter %v out of [0,1]", s.Name, s.ExecJitter)
	}
	if s.Type == Periodic && s.ExecTime+s.Overhead > s.Period {
		return fmt.Errorf("rtos: task %s: execution %v exceeds period %v",
			s.Name, s.ExecTime+s.Overhead, s.Period)
	}
	return nil
}

// job is one release of a task. Jobs are pooled by the kernel
// (allocJob/recycleJob); a finished job's struct is reused by a later
// release.
type job struct {
	task         *Task
	nominal      sim.Time
	absDeadline  sim.Time // nominal + relative deadline; Infinity if none
	exec         time.Duration
	remaining    time.Duration
	dispatched   bool
	dispatchTime sim.Time
	seq          uint64 // ready-queue ordering within a priority level
	queued       bool
	heapIdx      int  // position in the ready queue while queued
	nextFree     *job // free-list link while recycled
}

// Task is a created RT task.
type Task struct {
	k     *Kernel
	spec  TaskSpec
	state TaskState

	releases  uint64 // periodic release counter (index of next release)
	nextRelEv *sim.Event
	pending   *job // released but not yet completed job

	// Hot-path material precomputed at creation: the diagnostic labels the
	// dispatcher stamps on events every slice, the release handler closure,
	// and the nominal time of the release it will fire for.
	releaseLabel  string
	completeLabel string
	quantumLabel  string
	releaseFn     sim.Handler
	nextNominal   sim.Time

	rng *sim.Rand

	latency  metrics.Series // first-dispatch latency vs nominal release
	response metrics.Series // completion time vs nominal release
	jobsDone uint64
	misses   uint64       // completions past the deadline
	skips    uint64       // releases dropped because the previous job still ran
	consumed sim.Duration // lifetime execution time charged to this task's jobs

	// Fault-injection hooks (package fault): a runtime multiplier on the
	// sampled execution cost and a wedged-task flag. Both default to the
	// healthy behaviour and never perturb the random streams.
	execScale float64 // 0 or 1 = nominal
	stalled   bool
}

// TaskStats is a snapshot of a task's runtime counters.
type TaskStats struct {
	Name     string
	State    TaskState
	Jobs     uint64
	Misses   uint64
	Skips    uint64
	Latency  metrics.Row
	Response metrics.Row
}

// Name returns the task name.
func (t *Task) Name() string { return t.spec.Name }

// Spec returns the task's specification.
func (t *Task) Spec() TaskSpec { return t.spec }

// State returns the task state.
func (t *Task) State() TaskState { return t.state }

// Stats snapshots the task counters and latency statistics.
func (t *Task) Stats() TaskStats {
	return TaskStats{
		Name:     t.spec.Name,
		State:    t.state,
		Jobs:     t.jobsDone,
		Misses:   t.misses,
		Skips:    t.skips,
		Latency:  t.latency.Row(t.spec.Name),
		Response: t.response.Row(t.spec.Name),
	}
}

// Counters returns the raw job counters without computing latency
// statistics; unlike Stats it is O(1) and safe to call once per job.
func (t *Task) Counters() (jobs, misses, skips uint64) {
	return t.jobsDone, t.misses, t.skips
}

// TaskMetrics is the O(1) live accounting snapshot runtime contract
// monitors read every check: job/miss/skip counters plus the execution
// time the kernel has actually charged to the task — the measured side of
// the declared cpuusage budget.
type TaskMetrics struct {
	Jobs     uint64
	Misses   uint64
	Skips    uint64
	Consumed time.Duration // lifetime execution time consumed by this task's jobs
}

// Metrics returns the live counter snapshot without computing latency
// statistics. Unlike the HRC status snapshot (refreshed once per job) it
// is current as of the instant of the call.
func (t *Task) Metrics() TaskMetrics {
	return TaskMetrics{Jobs: t.jobsDone, Misses: t.misses, Skips: t.skips, Consumed: t.consumed}
}

// SetExecScale multiplies the sampled execution cost of future jobs by f,
// the fault injector's budget-overrun perturbation. Values <= 0 or 1
// restore the nominal cost. The jitter stream is drawn exactly as in the
// healthy path, so a scaled run stays deterministic for its seed.
func (t *Task) SetExecScale(f float64) {
	if f <= 0 {
		f = 1
	}
	t.execScale = f
}

// ExecScale reports the current execution-cost multiplier (1 = nominal).
func (t *Task) ExecScale() float64 {
	if t.execScale <= 0 {
		return 1
	}
	return t.execScale
}

// SetStalled wedges or heals the task. A stalled task's jobs run for
// twice the task period (periodic) or one millisecond (aperiodic)
// regardless of the declared cost, provoking the deadline-miss storm and
// release skips of a stuck component.
func (t *Task) SetStalled(stalled bool) { t.stalled = stalled }

// Stalled reports whether the task is currently wedged.
func (t *Task) Stalled() bool { return t.stalled }

// LatencySamples returns a copy of the recorded dispatch-latency samples
// in nanoseconds (negative = dispatched before nominal release).
func (t *Task) LatencySamples() []int64 { return t.latency.Samples() }

// ResetStats clears latency/response history and counters, keeping the
// task running; the benchmark harness uses it to discard warm-up samples.
func (t *Task) ResetStats() {
	t.latency.Reset()
	t.response.Reset()
	t.jobsDone, t.misses, t.skips = 0, 0, 0
}

// ErrTaskDeleted is returned for operations on a deleted task.
var ErrTaskDeleted = errors.New("rtos: task deleted")

// Start activates the task: periodic tasks begin releasing at their
// phase; aperiodic tasks await Trigger.
func (t *Task) Start() error {
	switch t.state {
	case TaskDeleted:
		return ErrTaskDeleted
	case TaskActive:
		return nil
	}
	t.state = TaskActive
	if t.spec.Type == Periodic {
		return t.scheduleNextRelease()
	}
	return nil
}

// Suspend halts future releases. A queued-but-undispatched job is
// withdrawn; a running job completes (RTAI semantics at the next
// scheduling point).
func (t *Task) Suspend() error {
	switch t.state {
	case TaskDeleted:
		return ErrTaskDeleted
	case TaskSuspended, TaskCreated:
		return nil
	}
	t.state = TaskSuspended
	if t.nextRelEv != nil {
		t.nextRelEv.Cancel()
		t.nextRelEv = nil
	}
	if t.pending != nil && !t.pending.dispatched {
		j := t.pending
		t.k.cpus[t.spec.CPU].ready.remove(j)
		t.pending = nil
		if !j.queued {
			t.k.recycleJob(j)
		}
	}
	return nil
}

// Resume reactivates a suspended task; periodic releases realign to the
// next period boundary.
func (t *Task) Resume() error {
	switch t.state {
	case TaskDeleted:
		return ErrTaskDeleted
	case TaskActive:
		return nil
	case TaskCreated:
		return t.Start()
	}
	t.state = TaskActive
	if t.spec.Type == Periodic {
		now := t.k.clock.Now()
		period := sim.Time(t.spec.Period)
		phase := sim.Time(t.spec.Phase)
		if now > phase {
			k := uint64((now-phase)/period) + 1
			if t.releases < k {
				t.releases = k
			}
		}
		return t.scheduleNextRelease()
	}
	return nil
}

// Trigger releases one job of an aperiodic task immediately.
func (t *Task) Trigger() error {
	if t.state == TaskDeleted {
		return ErrTaskDeleted
	}
	if t.spec.Type != Aperiodic {
		return fmt.Errorf("rtos: task %s is periodic; Trigger is for aperiodic tasks", t.spec.Name)
	}
	if t.state != TaskActive {
		return fmt.Errorf("rtos: task %s not active", t.spec.Name)
	}
	now := t.k.clock.Now()
	t.release(now, now)
	return nil
}

// Delete suspends and removes the task from the kernel.
func (t *Task) Delete() error {
	if t.state == TaskDeleted {
		return ErrTaskDeleted
	}
	if err := t.Suspend(); err != nil && !errors.Is(err, ErrTaskDeleted) {
		return err
	}
	// A still-running job is detached from its task.
	c := t.k.cpus[t.spec.CPU]
	if c.running != nil && c.running.task == t {
		t.pending = nil
	}
	t.state = TaskDeleted
	t.k.removeTask(t.spec.Name)
	return nil
}

// scheduleNextRelease queues the release event for index t.releases. The
// handler is the closure bound at creation; only one release event is ever
// outstanding per task, so the nominal time rides on the task itself.
func (t *Task) scheduleNextRelease() error {
	nominal := sim.Time(t.spec.Phase) + sim.Time(t.releases)*sim.Time(t.spec.Period)
	actual := nominal.Add(t.k.timing.SampleOffset(t.rng))
	now := t.k.clock.Now()
	if actual < now {
		actual = now
	}
	t.nextNominal = nominal
	ev, err := t.k.clock.Schedule(actual, t.releaseLabel, t.releaseFn)
	if err != nil {
		return err
	}
	t.nextRelEv = ev
	return nil
}

// fireRelease is the body of the task's release event.
func (t *Task) fireRelease(fireAt sim.Time) {
	t.nextRelEv = nil
	if t.state != TaskActive {
		return
	}
	t.release(fireAt, t.nextNominal)
	t.releases++
	if err := t.scheduleNextRelease(); err != nil {
		// Scheduling in virtual time only fails on programmer error;
		// surface it loudly in simulation.
		panic(err)
	}
}

// release creates a job and hands it to the scheduler.
func (t *Task) release(now, nominal sim.Time) {
	if t.pending != nil {
		// A job whose completion event is due exactly now is complete by
		// now: process it first so a busy period that ends precisely at
		// the next release (density exactly 1.0) is not misread as an
		// overrun.
		c := t.k.cpus[t.spec.CPU]
		if c.running == t.pending && c.complEv != nil && c.complEv.Time() == now {
			c.complete(t.k, now)
		}
	}
	if t.pending != nil {
		// Previous job still in flight: the release is skipped, the
		// "task skipping" failure mode the paper warns about.
		t.skips++
		t.k.trace(now, TraceSkip, t.spec.Name, t.spec.CPU)
		return
	}
	exec := t.sampleExec()
	absDeadline := sim.Infinity
	if d := t.deadline(); d > 0 {
		absDeadline = nominal.Add(d)
	}
	j := t.k.allocJob()
	*j = job{task: t, nominal: nominal, absDeadline: absDeadline, exec: exec, remaining: exec}
	t.pending = j
	t.k.trace(now, TraceRelease, t.spec.Name, t.spec.CPU)
	t.k.cpus[t.spec.CPU].enqueue(t.k, j, now)
}

func (t *Task) sampleExec() time.Duration {
	exec := t.spec.ExecTime
	if t.spec.ExecJitter > 0 && exec > 0 {
		f := 1 + t.spec.ExecJitter*t.rng.NormFloat64()
		if f < 0.1 {
			f = 0.1
		}
		exec = time.Duration(float64(exec) * f)
	}
	if t.stalled {
		// Wedged: the job occupies the CPU far past its deadline. The
		// jitter draw above still happened, so healing the task leaves the
		// random stream exactly where a healthy run would have it.
		if t.spec.Type == Periodic {
			return 2 * t.spec.Period
		}
		return time.Millisecond
	}
	if t.execScale > 0 && t.execScale != 1 {
		exec = time.Duration(float64(exec) * t.execScale)
	}
	exec += t.spec.Overhead
	if exec <= 0 {
		exec = time.Nanosecond // a job always occupies the CPU measurably
	}
	return exec
}

func (t *Task) deadline() time.Duration {
	if t.spec.Deadline > 0 {
		return t.spec.Deadline
	}
	if t.spec.Type == Periodic {
		return t.spec.Period
	}
	return 0
}

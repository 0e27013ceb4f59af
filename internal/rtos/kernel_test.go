package rtos

import (
	"errors"
	"testing"
	"time"

	"repro/internal/rtos/ipc"
)

// noNoise is a timing model with zero drift, for exact-latency tests.
var noNoise = TimingModel{}

func exactKernel(numCPU int) *Kernel {
	return NewKernel(Config{NumCPUs: numCPU, Timing: &noNoise, Seed: 7})
}

func TestTaskSpecValidation(t *testing.T) {
	k := exactKernel(1)
	base := TaskSpec{Name: "good", Type: Periodic, Period: time.Millisecond, ExecTime: 10 * time.Microsecond}
	if _, err := k.CreateTask(base); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TaskSpec)
	}{
		{"empty name", func(s *TaskSpec) { s.Name = "" }},
		{"long name", func(s *TaskSpec) { s.Name = "sevench" }},
		{"bad type", func(s *TaskSpec) { s.Type = 0 }},
		{"bad cpu", func(s *TaskSpec) { s.CPU = 1 }},
		{"negative cpu", func(s *TaskSpec) { s.CPU = -1 }},
		{"negative prio", func(s *TaskSpec) { s.Priority = -1 }},
		{"zero period", func(s *TaskSpec) { s.Period = 0 }},
		{"negative exec", func(s *TaskSpec) { s.ExecTime = -1 }},
		{"bad jitter", func(s *TaskSpec) { s.ExecJitter = 1.5 }},
		{"exec exceeds period", func(s *TaskSpec) { s.ExecTime = 2 * time.Millisecond }},
	}
	for _, c := range cases {
		spec := base
		spec.Name = "x"
		c.mutate(&spec)
		if _, err := k.CreateTask(spec); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Duplicate name.
	if _, err := k.CreateTask(base); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestPeriodicExactReleases(t *testing.T) {
	k := exactKernel(1)
	var dispatches []int64
	task, err := k.CreateTask(TaskSpec{
		Name: "tick", Type: Periodic, Period: time.Millisecond,
		ExecTime: 50 * time.Microsecond,
		Body: func(j *JobContext) {
			dispatches = append(dispatches, int64(j.Now))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10*time.Millisecond + 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(dispatches) != 11 { // t = 0,1ms,...,10ms
		t.Fatalf("dispatches = %d, want 11", len(dispatches))
	}
	for i, d := range dispatches {
		if d != int64(i)*int64(time.Millisecond) {
			t.Fatalf("dispatch %d at %d, want exact period grid", i, d)
		}
	}
	st := task.Stats()
	if st.Jobs != 11 || st.Misses != 0 || st.Skips != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Latency.Average != 0 || st.Latency.Max != 0 {
		t.Fatalf("noise-free latency = %+v", st.Latency)
	}
	// Response = exec time exactly.
	if st.Response.Average != float64(50*time.Microsecond) {
		t.Fatalf("response avg = %v", st.Response.Average)
	}
}

func TestPhaseDelaysFirstRelease(t *testing.T) {
	k := exactKernel(1)
	var first int64 = -1
	task, _ := k.CreateTask(TaskSpec{
		Name: "ph", Type: Periodic, Period: time.Millisecond, Phase: 300 * time.Microsecond,
		ExecTime: time.Microsecond,
		Body: func(j *JobContext) {
			if first < 0 {
				first = int64(j.Now)
			}
		},
	})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if first != int64(300*time.Microsecond) {
		t.Fatalf("first dispatch at %d", first)
	}
}

func TestPreemptionByHigherPriority(t *testing.T) {
	k := exactKernel(1)
	// Low-priority hog: released at 0, runs 500µs.
	hog, _ := k.CreateTask(TaskSpec{
		Name: "hog", Type: Periodic, Period: 10 * time.Millisecond,
		Priority: 5, ExecTime: 500 * time.Microsecond,
	})
	// High-priority task released at 100µs (phase).
	urgent, _ := k.CreateTask(TaskSpec{
		Name: "urgent", Type: Periodic, Period: 10 * time.Millisecond,
		Phase: 100 * time.Microsecond, Priority: 1, ExecTime: 50 * time.Microsecond,
	})
	if err := hog.Start(); err != nil {
		t.Fatal(err)
	}
	if err := urgent.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	us := urgent.Stats()
	if us.Latency.Max != 0 {
		t.Fatalf("urgent latency max = %d, want 0 (immediate preemption)", us.Latency.Max)
	}
	hs := hog.Stats()
	// Hog's response = 500µs own work + 50µs stolen by urgent.
	if hs.Response.Max != int64(550*time.Microsecond) {
		t.Fatalf("hog response max = %d, want 550µs", hs.Response.Max)
	}
	if hs.Jobs == 0 || hs.Misses != 0 {
		t.Fatalf("hog stats = %+v", hs)
	}
}

func TestLowerPriorityWaits(t *testing.T) {
	k := exactKernel(1)
	// Both released at t=0; high runs first, low waits.
	high, _ := k.CreateTask(TaskSpec{
		Name: "high", Type: Periodic, Period: 10 * time.Millisecond,
		Priority: 1, ExecTime: 200 * time.Microsecond,
	})
	low, _ := k.CreateTask(TaskSpec{
		Name: "low", Type: Periodic, Period: 10 * time.Millisecond,
		Priority: 2, ExecTime: 100 * time.Microsecond,
	})
	if err := high.Start(); err != nil {
		t.Fatal(err)
	}
	if err := low.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ls := low.Stats()
	if ls.Latency.Max != int64(200*time.Microsecond) {
		t.Fatalf("low latency = %d, want 200µs queueing delay", ls.Latency.Max)
	}
}

func TestRoundRobinAmongEqualPriority(t *testing.T) {
	k := NewKernel(Config{Timing: &noNoise, Quantum: 100 * time.Microsecond, Seed: 3})
	var order []string
	mk := func(name string) {
		task, err := k.CreateTask(TaskSpec{
			Name: name, Type: Periodic, Period: 10 * time.Millisecond,
			Priority: 2, ExecTime: 250 * time.Microsecond,
			Body: func(j *JobContext) { order = append(order, name) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
	}
	mk("aaa")
	mk("bbb")
	if err := k.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Both dispatched in the first millisecond; RR means bbb starts before
	// aaa finishes its full 250µs.
	if len(order) != 2 {
		t.Fatalf("order = %v", order)
	}
	// aaa completes at 100+100+50+(rotations) — verify interleaving via
	// completion times: with RR both finish within 500µs total work.
	as, bs := mustTask(t, k, "aaa").Stats(), mustTask(t, k, "bbb").Stats()
	if as.Jobs != 1 || bs.Jobs != 1 {
		t.Fatalf("jobs = %d/%d", as.Jobs, bs.Jobs)
	}
	// bbb's first dispatch happened at the first quantum boundary, not
	// after aaa's full job.
	if bs.Latency.Max != int64(100*time.Microsecond) {
		t.Fatalf("bbb latency = %d, want one quantum (100µs)", bs.Latency.Max)
	}
	// With RR, aaa finishes at 450µs (250 own + 200 of bbb interleaved).
	if as.Response.Max != int64(450*time.Microsecond) {
		t.Fatalf("aaa response = %d, want 450µs", as.Response.Max)
	}
}

func TestFIFOWhenQuantumDisabled(t *testing.T) {
	k := NewKernel(Config{Timing: &noNoise, Quantum: -1, Seed: 3})
	a, _ := k.CreateTask(TaskSpec{Name: "a", Type: Periodic, Period: 10 * time.Millisecond, Priority: 2, ExecTime: 250 * time.Microsecond})
	b, _ := k.CreateTask(TaskSpec{Name: "b", Type: Periodic, Period: 10 * time.Millisecond, Priority: 2, ExecTime: 250 * time.Microsecond})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Latency.Max; got != int64(250*time.Microsecond) {
		t.Fatalf("b latency = %d, want full 250µs of a (FIFO)", got)
	}
}

func TestOverloadCausesMissesAndSkips(t *testing.T) {
	k := exactKernel(1)
	// 110% utilization: misses then skips must appear on the low task.
	hi, _ := k.CreateTask(TaskSpec{Name: "hi", Type: Periodic, Period: time.Millisecond, Priority: 1, ExecTime: 900 * time.Microsecond})
	lo, _ := k.CreateTask(TaskSpec{Name: "lo", Type: Periodic, Period: time.Millisecond, Priority: 2, ExecTime: 200 * time.Microsecond})
	if err := hi.Start(); err != nil {
		t.Fatal(err)
	}
	if err := lo.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	his, los := hi.Stats(), lo.Stats()
	if his.Misses != 0 {
		t.Fatalf("high-priority task missed %d deadlines", his.Misses)
	}
	if los.Misses == 0 {
		t.Fatal("overloaded low task missed no deadlines")
	}
	if los.Skips == 0 {
		t.Fatal("overloaded low task skipped no releases")
	}
}

func TestSuspendResume(t *testing.T) {
	k := exactKernel(1)
	task, _ := k.CreateTask(TaskSpec{Name: "sr", Type: Periodic, Period: time.Millisecond, ExecTime: 10 * time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := task.Suspend(); err != nil {
		t.Fatal(err)
	}
	if task.State() != TaskSuspended {
		t.Fatalf("state = %v", task.State())
	}
	// A job already running at suspension time completes (RTAI stops a
	// task at its next scheduling point); let it drain before counting.
	if err := k.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	jobsBefore := task.Stats().Jobs
	if err := k.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := task.Stats().Jobs; got != jobsBefore {
		t.Fatalf("suspended task ran: %d -> %d jobs", jobsBefore, got)
	}
	if err := task.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := task.Stats().Jobs; got <= jobsBefore {
		t.Fatal("resumed task did not run")
	}
	// Releases realigned to the period grid: latency still exact zero.
	if task.Stats().Latency.Max != 0 {
		t.Fatalf("post-resume latency = %+v", task.Stats().Latency)
	}
	// Idempotent operations.
	if err := task.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := task.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := task.Suspend(); err != nil {
		t.Fatal(err)
	}
}

func TestAperiodicTrigger(t *testing.T) {
	k := exactKernel(1)
	var ran int
	task, _ := k.CreateTask(TaskSpec{
		Name: "ap", Type: Aperiodic, Priority: 1, ExecTime: 20 * time.Microsecond,
		Body: func(j *JobContext) { ran++ },
	})
	if err := task.Trigger(); err == nil {
		t.Fatal("Trigger before Start accepted")
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := task.Trigger(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d", ran)
	}
	if task.Stats().Jobs != 1 {
		t.Fatalf("jobs = %d", task.Stats().Jobs)
	}
}

func TestTriggerOnPeriodicRejected(t *testing.T) {
	k := exactKernel(1)
	task, _ := k.CreateTask(TaskSpec{Name: "p", Type: Periodic, Period: time.Millisecond, ExecTime: time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := task.Trigger(); err == nil {
		t.Fatal("Trigger on periodic task accepted")
	}
}

func TestDeleteTask(t *testing.T) {
	k := exactKernel(1)
	task, _ := k.CreateTask(TaskSpec{Name: "del", Type: Periodic, Period: time.Millisecond, ExecTime: time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := task.Delete(); err != nil {
		t.Fatal(err)
	}
	if task.State() != TaskDeleted {
		t.Fatalf("state = %v", task.State())
	}
	if _, ok := k.Task("del"); ok {
		t.Fatal("deleted task still registered")
	}
	if err := task.Start(); !errors.Is(err, ErrTaskDeleted) {
		t.Fatalf("Start on deleted: %v", err)
	}
	if err := task.Delete(); !errors.Is(err, ErrTaskDeleted) {
		t.Fatalf("double delete: %v", err)
	}
	// The name can be reused.
	if _, err := k.CreateTask(TaskSpec{Name: "del", Type: Periodic, Period: time.Millisecond, ExecTime: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiCPUIsolation(t *testing.T) {
	k := exactKernel(2)
	// CPU 0 hog at high priority; CPU 1 task must be unaffected.
	hog, _ := k.CreateTask(TaskSpec{Name: "hog", Type: Periodic, Period: time.Millisecond, CPU: 0, Priority: 0, ExecTime: 900 * time.Microsecond})
	other, _ := k.CreateTask(TaskSpec{Name: "other", Type: Periodic, Period: time.Millisecond, CPU: 1, Priority: 5, ExecTime: 100 * time.Microsecond})
	if err := hog.Start(); err != nil {
		t.Fatal(err)
	}
	if err := other.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := other.Stats().Latency.Max; got != 0 {
		t.Fatalf("cross-CPU interference: latency %d", got)
	}
	busy := func(cpu int) float64 {
		d, err := k.BusyTime(cpu)
		if err != nil {
			t.Fatal(err)
		}
		return float64(d) / float64(50*time.Millisecond)
	}
	u0, u1 := busy(0), busy(1)
	if u0 < 0.89 || u0 > 0.91 {
		t.Fatalf("cpu0 utilization = %v", u0)
	}
	if u1 < 0.09 || u1 > 0.11 {
		t.Fatalf("cpu1 utilization = %v", u1)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		k := NewKernel(Config{Seed: 42, Mode: LightLoad})
		task, err := k.CreateTask(TaskSpec{Name: "d", Type: Periodic, Period: time.Millisecond, ExecTime: 30 * time.Microsecond, ExecJitter: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		return task.LatencySamples()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestLoadModeRegimes(t *testing.T) {
	measure := func(mode LoadMode) (mean, avedev float64) {
		k := NewKernel(Config{Seed: 11, Mode: mode})
		task, err := k.CreateTask(TaskSpec{Name: "lat", Type: Periodic, Period: time.Millisecond, ExecTime: 20 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Start(); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		row := task.Stats().Latency
		return row.Average, row.AveDev
	}
	lightMean, lightDev := measure(LightLoad)
	stressMean, stressDev := measure(StressLoad)
	// Paper Table 1 shape: light near zero with wide spread; stress ~-21µs
	// with tight spread.
	if lightMean < -4000 || lightMean > 2000 {
		t.Fatalf("light mean = %v ns, want near zero", lightMean)
	}
	if stressMean > -18000 || stressMean < -25000 {
		t.Fatalf("stress mean = %v ns, want ≈ -21µs", stressMean)
	}
	if lightDev < 4*stressDev {
		t.Fatalf("spread regime wrong: light %v vs stress %v", lightDev, stressDev)
	}
}

func TestSetLoadModeSwitchesAtRuntime(t *testing.T) {
	k := NewKernel(Config{Seed: 5, Mode: LightLoad})
	task, _ := k.CreateTask(TaskSpec{Name: "sw", Type: Periodic, Period: time.Millisecond, ExecTime: 10 * time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	task.ResetStats()
	k.SetLoadMode(StressLoad)
	if k.mode != StressLoad {
		t.Fatal("mode not switched")
	}
	if err := k.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if mean := task.Stats().Latency.Average; mean > -15000 {
		t.Fatalf("post-switch mean = %v, want stress regime", mean)
	}
}

func TestKernelIPCIntegration(t *testing.T) {
	k := exactKernel(1)
	shm, err := k.IPC().CreateSHM("data", ipc.Integer, 8)
	if err != nil {
		t.Fatal(err)
	}
	producer, _ := k.CreateTask(TaskSpec{
		Name: "prod", Type: Periodic, Period: time.Millisecond, Priority: 1,
		ExecTime: 10 * time.Microsecond,
		Body: func(j *JobContext) {
			s, err := j.Kernel.IPC().SHM("data")
			if err != nil {
				t.Errorf("producer SHM lookup: %v", err)
				return
			}
			if err := s.Set(0, int64(j.Index)); err != nil {
				t.Errorf("producer Set: %v", err)
			}
		},
	})
	var seen []int64
	consumer, _ := k.CreateTask(TaskSpec{
		Name: "cons", Type: Periodic, Period: 4 * time.Millisecond, Priority: 2,
		ExecTime: 10 * time.Microsecond,
		Body: func(j *JobContext) {
			v, err := shm.Get(0)
			if err != nil {
				t.Errorf("consumer Get: %v", err)
				return
			}
			seen = append(seen, v)
		},
	})
	if err := producer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(seen) < 5 {
		t.Fatalf("consumer saw %d values", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("non-monotone data: %v", seen)
		}
	}
}

func TestTasksSortedAndLookup(t *testing.T) {
	k := exactKernel(1)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := k.CreateTask(TaskSpec{Name: n, Type: Aperiodic, ExecTime: time.Microsecond}); err != nil {
			t.Fatal(err)
		}
	}
	ts := k.Tasks()
	if len(ts) != 3 || ts[0].Name() != "alpha" || ts[2].Name() != "zeta" {
		t.Fatalf("Tasks = %v", ts)
	}
	if _, ok := k.Task("mid"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := k.Task("nope"); ok {
		t.Fatal("phantom task")
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	k := exactKernel(1)
	task, _ := k.CreateTask(TaskSpec{Name: "b", Type: Periodic, Period: time.Millisecond, ExecTime: 100 * time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10*time.Millisecond + 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	busy, err := k.BusyTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if busy != 11*100*time.Microsecond {
		t.Fatalf("busy = %v, want 1.1ms", busy)
	}
	if _, err := k.BusyTime(9); err == nil {
		t.Fatal("bad cpu accepted")
	}
}

func TestResetStats(t *testing.T) {
	k := exactKernel(1)
	task, _ := k.CreateTask(TaskSpec{Name: "r", Type: Periodic, Period: time.Millisecond, ExecTime: time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if task.Stats().Jobs == 0 {
		t.Fatal("no jobs before reset")
	}
	task.ResetStats()
	st := task.Stats()
	if st.Jobs != 0 || st.Latency.N != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestConfigDefaults(t *testing.T) {
	k := NewKernel(Config{})
	if k.NumCPUs() != 1 {
		t.Fatalf("NumCPUs = %d", k.NumCPUs())
	}
	if k.mode != LightLoad {
		t.Fatalf("mode = %v", k.mode)
	}
	if k.quantum != 100*time.Microsecond {
		t.Fatalf("quantum = %v", k.quantum)
	}
}

func mustTask(t *testing.T, k *Kernel, name string) *Task {
	t.Helper()
	task, ok := k.Task(name)
	if !ok {
		t.Fatalf("task %s missing", name)
	}
	return task
}

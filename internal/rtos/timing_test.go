package rtos

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestLoadModeString(t *testing.T) {
	if LightLoad.String() != "light" || StressLoad.String() != "stress" {
		t.Fatal("mode strings")
	}
	if LoadMode(0).String() != "unknown" {
		t.Fatal("unknown mode string")
	}
}

func TestTimingForMode(t *testing.T) {
	if TimingForMode(LightLoad) != LightTiming() {
		t.Fatal("light model mismatch")
	}
	if TimingForMode(StressLoad) != StressTiming() {
		t.Fatal("stress model mismatch")
	}
	// Anything else defaults to light.
	if TimingForMode(LoadMode(9)) != LightTiming() {
		t.Fatal("default model mismatch")
	}
}

// TestTimingModelMoments verifies the calibrated models statistically
// against the Table 1 regimes they were fitted to.
func TestTimingModelMoments(t *testing.T) {
	const n = 200000
	sample := func(tm TimingModel) (mean, avedev float64, minV, maxV time.Duration) {
		r := sim.NewRand(123)
		var sum float64
		vals := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			v := tm.SampleOffset(r)
			vals[i] = v
			sum += float64(v)
		}
		mean = sum / n
		for i, v := range vals {
			avedev += math.Abs(float64(v) - mean)
			if i == 0 || v < minV {
				minV = v
			}
			if i == 0 || v > maxV {
				maxV = v
			}
		}
		avedev /= n
		return mean, avedev, minV, maxV
	}

	lm, ld, lmin, lmax := sample(LightTiming())
	if lm < -2500 || lm > 1500 {
		t.Errorf("light mean = %v ns", lm)
	}
	if ld < 2000 || ld > 5500 {
		t.Errorf("light avedev = %v ns", ld)
	}
	// Paper light min/max reach ≈ ±25µs; excursions must produce tails
	// beyond 3σ of the base Gaussian.
	if lmin > -12000*time.Nanosecond || lmax < 12000*time.Nanosecond {
		t.Errorf("light tails too tight: %v / %v", lmin, lmax)
	}

	sm, sd, _, smax := sample(StressTiming())
	if sm > -19000 || sm < -23500 {
		t.Errorf("stress mean = %v ns", sm)
	}
	if sd > 1200 {
		t.Errorf("stress avedev = %v ns", sd)
	}
	if smax > 0 {
		t.Errorf("stress max = %v, should remain negative", smax)
	}
	// Regime relation: stress spread is much tighter than light.
	if ld < 3*sd {
		t.Errorf("light/stress spread ratio too small: %v vs %v", ld, sd)
	}
}

func TestZeroTimingModelIsExact(t *testing.T) {
	var tm TimingModel
	r := sim.NewRand(1)
	for i := 0; i < 100; i++ {
		if got := tm.SampleOffset(r); got != 0 {
			t.Fatalf("zero model sampled %v", got)
		}
	}
}

func TestAperiodicLatencyImmediate(t *testing.T) {
	k := NewKernel(Config{Timing: &TimingModel{}, Seed: 2})
	task, err := k.CreateTask(TaskSpec{Name: "ap", Type: Aperiodic, Priority: 0, ExecTime: 5 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := task.Trigger(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := task.Stats()
	if st.Jobs != 1 || st.Latency.Max != 0 {
		t.Fatalf("aperiodic stats = %+v", st)
	}
}

func TestDeleteWhileJobRunning(t *testing.T) {
	k := NewKernel(Config{Timing: &TimingModel{}, Seed: 2})
	task, err := k.CreateTask(TaskSpec{
		Name: "dw", Type: Periodic, Period: time.Millisecond,
		ExecTime: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	// Stop mid-job: at 200µs the first job is running.
	if err := k.Run(200 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := task.Delete(); err != nil {
		t.Fatal(err)
	}
	// The rest of the simulation must not crash or revive the task.
	if err := k.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if task.Stats().Jobs != 0 {
		t.Fatalf("deleted task completed %d jobs", task.Stats().Jobs)
	}
}

func TestQuantumDoesNotRotateAcrossPriorities(t *testing.T) {
	k := NewKernel(Config{Timing: &TimingModel{}, Quantum: 50 * time.Microsecond, Seed: 2})
	hi, _ := k.CreateTask(TaskSpec{Name: "hi", Type: Periodic, Period: 10 * time.Millisecond, Priority: 1, ExecTime: 300 * time.Microsecond})
	lo, _ := k.CreateTask(TaskSpec{Name: "lo", Type: Periodic, Period: 10 * time.Millisecond, Priority: 2, ExecTime: 300 * time.Microsecond})
	if err := hi.Start(); err != nil {
		t.Fatal(err)
	}
	if err := lo.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// lo must wait for hi's complete job despite the quantum.
	if got := lo.Stats().Latency.Max; got != int64(300*time.Microsecond) {
		t.Fatalf("lo latency = %d, want full 300µs (no cross-priority rotation)", got)
	}
}

func TestRunUntilAbsolute(t *testing.T) {
	k := NewKernel(Config{Timing: &TimingModel{}, Seed: 2})
	task, _ := k.CreateTask(TaskSpec{Name: "x", Type: Periodic, Period: time.Millisecond, ExecTime: time.Microsecond})
	if err := task.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(sim.Time(3500 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if k.Now() != sim.Time(3500*time.Microsecond) {
		t.Fatalf("Now = %v", k.Now())
	}
	if got := task.Stats().Jobs; got != 4 { // 0,1,2,3 ms
		t.Fatalf("jobs = %d", got)
	}
}

func TestTaskTypeAndStateStrings(t *testing.T) {
	if Periodic.String() != "periodic" || Aperiodic.String() != "aperiodic" {
		t.Fatal("task type strings")
	}
	if TaskCreated.String() != "created" || TaskDeleted.String() != "deleted" {
		t.Fatal("task state strings")
	}
	if TaskType(9).String() == "" || TaskState(9).String() == "" {
		t.Fatal("unknown strings empty")
	}
}

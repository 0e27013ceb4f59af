package workload

import (
	"testing"
	"time"

	"repro/internal/rtos"
)

var exact = rtos.TimingModel{}

// TestBackgroundLoadCannotDelayRTTasks is the dual-kernel property: a
// saturating non-RT load leaves RT dispatch latency untouched, because
// every RT priority outranks the whole Linux band.
func TestBackgroundLoadCannotDelayRTTasks(t *testing.T) {
	measure := func(withLoad bool) (rtMax int64, hogJobs uint64) {
		k := rtos.NewKernel(rtos.Config{Timing: &exact, Seed: 5})
		rt, err := k.CreateTask(rtos.TaskSpec{
			Name: "rt", Type: rtos.Periodic, Period: time.Millisecond,
			Priority: 3, ExecTime: 100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var bl *BackgroundLoad
		if withLoad {
			bl, err = NewBackgroundLoad(k, 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := bl.Start(); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Start(); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		if withLoad {
			for _, h := range bl.tasks {
				hogJobs += h.Stats().Jobs
			}
		}
		return rt.Stats().Latency.Max, hogJobs
	}
	idleMax, _ := measure(false)
	loadedMax, hogJobs := measure(true)
	if idleMax != 0 || loadedMax != 0 {
		t.Fatalf("rt latency idle=%d loaded=%d, want 0/0 (RT immunity)", idleMax, loadedMax)
	}
	if hogJobs == 0 {
		t.Fatal("background load never ran")
	}
}

// TestBackgroundLoadSoaksIdleCPU: the hogs consume (almost) everything
// the RT set leaves over.
func TestBackgroundLoadSoaksIdleCPU(t *testing.T) {
	k := rtos.NewKernel(rtos.Config{Timing: &exact, Seed: 5})
	rt, err := k.CreateTask(rtos.TaskSpec{
		Name: "rt", Type: rtos.Periodic, Period: time.Millisecond,
		Priority: 1, ExecTime: 300 * time.Microsecond, // 30% RT demand
	})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := NewBackgroundLoad(k, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if err := bl.Start(); err != nil {
		t.Fatal(err)
	}
	const window = 2 * time.Second
	if err := k.Run(window); err != nil {
		t.Fatal(err)
	}
	busy, err := k.BusyTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(busy) / float64(window); frac < 0.95 {
		t.Fatalf("cpu busy fraction = %v, want ~1 under stress load", frac)
	}
	// The hogs got roughly the leftover 70%.
	var hogBusy time.Duration
	for _, h := range bl.tasks {
		st := h.Stats()
		hogBusy += time.Duration(st.Jobs) * h.Spec().ExecTime
	}
	if frac := float64(hogBusy) / float64(window); frac < 0.6 || frac > 0.75 {
		t.Fatalf("hog share = %v, want ~0.7", frac)
	}
	bl.Stop()
	if len(k.Tasks()) != 1 {
		t.Fatalf("hogs not deleted: %v", k.Tasks())
	}
}

func TestBackgroundLoadValidation(t *testing.T) {
	k := rtos.NewKernel(rtos.Config{Seed: 1})
	if _, err := NewBackgroundLoad(k, 0, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewBackgroundLoad(k, 5, 1); err == nil {
		t.Fatal("bad cpu accepted")
	}
	// Name collision rolls back cleanly.
	if _, err := k.CreateTask(rtos.TaskSpec{Name: "hog1", Type: rtos.Aperiodic, ExecTime: time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBackgroundLoad(k, 0, 3); err == nil {
		t.Fatal("collision not reported")
	}
	if _, ok := k.Task("hog0"); ok {
		t.Fatal("partial load not rolled back")
	}
}

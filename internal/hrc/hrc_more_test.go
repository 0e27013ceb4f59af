package hrc

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/sim"
)

// TestStatusStalenessBoundedByPeriod: the snapshot is refreshed every
// job, so its LastJobAt never lags the clock by more than one period
// while the task runs.
func TestStatusStalenessBoundedByPeriod(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	period := c.Task().Spec().Period
	for i := 0; i < 50; i++ {
		if err := k.Run(700 * time.Microsecond); err != nil { // deliberately unaligned
			t.Fatal(err)
		}
		st := c.Status()
		if st.Jobs == 0 {
			continue // before the first job
		}
		if lag := k.Now().Sub(st.LastJobAt); lag > period {
			t.Fatalf("status lag %v exceeds one period %v", lag, period)
		}
	}
}

// TestSyncModeAppliesImmediately: the ablation's rejected design has one
// virtue — commands land instantly — which the test pins so the tradeoff
// stays visible.
func TestSyncModeAppliesImmediately(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam"), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Suspend(); err != nil {
		t.Fatal(err)
	}
	// No simulated time has passed; sync mode already applied it.
	if c.Task().State() != rtos.TaskSuspended {
		t.Fatalf("sync suspend not immediate: %v", c.Task().State())
	}
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetProperty("k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Property("k"); v != "v" {
		t.Fatal("sync set-property not immediate")
	}
}

// TestManyComponentsShareOneKernel: the bridge scales to a fleet without
// name or mailbox collisions.
func TestManyComponentsShareOneKernel(t *testing.T) {
	k := newKernel()
	var comps []*Component
	for i := 0; i < 20; i++ {
		spec := periodicSpec(fmt.Sprintf("c%02d", i))
		spec.Period = 10 * time.Millisecond
		spec.ExecTime = 100 * time.Microsecond
		spec.Priority = i
		c, err := New(Config{Kernel: k, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		comps = append(comps, c)
	}
	if err := k.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if c.Status().Jobs < 9 {
			t.Fatalf("%s jobs = %d", c.Task().Name(), c.Status().Jobs)
		}
		if err := c.SetProperty("x", "1"); err != nil {
			t.Fatalf("%s: %v", c.Task().Name(), err)
		}
	}
	if err := k.Run(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, c := range comps {
		if v, _ := c.Property("x"); v != "1" {
			t.Fatalf("%s property not applied", c.Task().Name())
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s close: %v", c.Task().Name(), err)
		}
	}
	if len(k.Tasks()) != 0 {
		t.Fatalf("tasks left: %d", len(k.Tasks()))
	}
	shms, boxes := k.IPC().Names()
	if len(shms)+len(boxes) != 0 {
		t.Fatalf("IPC residue: %v %v", shms, boxes)
	}
}

// TestStatusZeroBeforeFirstJob: the snapshot starts zeroed, not garbage.
func TestStatusZeroBeforeFirstJob(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam")})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st.Jobs != 0 || st.LastJobAt != sim.Time(0) || st.CommandsServed != 0 {
		t.Fatalf("pre-start status = %+v", st)
	}
}

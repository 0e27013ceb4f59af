package hrc

import (
	"testing"
	"time"

	"repro/internal/rtos"
)

var noNoise = rtos.TimingModel{}

func newKernel() *rtos.Kernel {
	return rtos.NewKernel(rtos.Config{Timing: &noNoise, Seed: 9})
}

func periodicSpec(name string) rtos.TaskSpec {
	return rtos.TaskSpec{
		Name: name, Type: rtos.Periodic, Period: time.Millisecond,
		Priority: 2, ExecTime: 50 * time.Microsecond,
	}
}

func TestNewValidation(t *testing.T) {
	k := newKernel()
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil kernel accepted")
	}
	spec := periodicSpec("x")
	spec.Body = func(*rtos.JobContext) {}
	if _, err := New(Config{Kernel: k, Spec: spec}); err == nil {
		t.Fatal("pre-set Body accepted")
	}
	spec = periodicSpec("x")
	spec.Overhead = time.Microsecond
	if _, err := New(Config{Kernel: k, Spec: spec}); err == nil {
		t.Fatal("pre-set Overhead accepted")
	}
	// Bad task spec propagates, and the mailbox is rolled back so the
	// name can be reused.
	bad := periodicSpec("y")
	bad.Period = 0
	if _, err := New(Config{Kernel: k, Spec: bad}); err == nil {
		t.Fatal("bad spec accepted")
	}
	if _, err := New(Config{Kernel: k, Spec: periodicSpec("y")}); err != nil {
		t.Fatalf("mailbox not rolled back: %v", err)
	}
}

func TestFunctionalBodyRuns(t *testing.T) {
	k := newKernel()
	var runs int
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam"), Body: func(*rtos.JobContext) { runs++ }})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if runs < 10 {
		t.Fatalf("runs = %d", runs)
	}
	st := c.Status()
	if st.Jobs == 0 || st.TaskState != rtos.TaskActive {
		t.Fatalf("status = %+v", st)
	}
}

func TestAsyncSuspendTakesEffectAtJobBoundary(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Suspend(); err != nil {
		t.Fatal(err)
	}
	// Command sits in the mailbox; the task is still active until its
	// next job polls it.
	if c.Task().State() != rtos.TaskActive {
		t.Fatal("suspend applied synchronously in async mode")
	}
	if err := k.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.Task().State() != rtos.TaskSuspended {
		t.Fatalf("task state = %v after poll", c.Task().State())
	}
	jobs := c.Status().Jobs
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.Status().Jobs != jobs {
		t.Fatal("suspended task kept running")
	}
	// Resume is direct: the task cannot poll its own mailbox while
	// suspended.
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	if c.Task().State() != rtos.TaskActive {
		t.Fatal("resume not immediate")
	}
	if err := k.Run(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.Status().Jobs <= jobs {
		t.Fatal("resumed task not running")
	}
}

func TestSetPropertyAsync(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam"), Props: map[string]string{"gain": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Property("gain"); !ok || v != "1" {
		t.Fatalf("seed property = %q, %v", v, ok)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetProperty("gain", "8"); err != nil {
		t.Fatal(err)
	}
	// Not applied until the RT side polls.
	if v, _ := c.Property("gain"); v != "1" {
		t.Fatalf("property applied synchronously: %q", v)
	}
	if err := k.Run(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Property("gain"); v != "8" {
		t.Fatalf("property after poll = %q", v)
	}
	if got := c.Status().CommandsServed; got != 1 {
		t.Fatalf("served = %d", got)
	}
	if err := c.SetProperty("", "x"); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := c.SetProperty("a\x00b", "x"); err == nil {
		t.Fatal("NUL key accepted")
	}
}

func TestMailboxOverflowCountsLost(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam"), MailboxCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Fill the box without letting the task poll (no Run in between).
	if err := c.SetProperty("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetProperty("b", "2"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetProperty("c", "3"); err == nil {
		t.Fatal("overflow not reported")
	}
	if got := c.Status().CommandsLost; got != 1 {
		t.Fatalf("lost = %d", got)
	}
}

func TestAsyncCommandsDoNotPerturbLatency(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Command storm: a set-property every simulated 2ms.
	for i := 0; i < 50; i++ {
		if err := k.Run(2 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := c.SetProperty("p", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Task().Stats().Latency.Max; got != 0 {
		t.Fatalf("async command storm perturbed dispatch latency: max %d ns", got)
	}
}

func TestSyncCommandsPerturbLatency(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam"), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	// Send each command right before a release so the handler burst
	// collides with the task's dispatch.
	for i := 0; i < 50; i++ {
		if err := k.Run(2*time.Millisecond - 5*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		if err := c.SetProperty("p", "v"); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(5 * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Task().Stats().Latency.Max; got <= 0 {
		t.Fatalf("sync command handling did not perturb latency: max %d ns", got)
	}
	// Sync mode applies immediately.
	if v, _ := c.Property("p"); v != "v" {
		t.Fatalf("sync property = %q", v)
	}
}

func TestClose(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("closed component started")
	}
	if err := c.Suspend(); err == nil {
		t.Fatal("closed component accepted command")
	}
	if err := c.Resume(); err == nil {
		t.Fatal("closed component resumed")
	}
	// Name fully released: a new component can reuse it.
	if _, err := New(Config{Kernel: k, Spec: periodicSpec("cam")}); err != nil {
		t.Fatalf("name not released: %v", err)
	}
}

func TestHandlerName(t *testing.T) {
	if got := handlerName("cam"); got != "cam!" {
		t.Fatalf("handlerName(cam) = %q", got)
	}
	if got := handlerName("camera"); got != "camer!" {
		t.Fatalf("handlerName(camera) = %q", got)
	}
	if len(handlerName("abcdef")) > 6 {
		t.Fatal("handler name exceeds 6 chars")
	}
}

func TestSyncModeUsesHandlerTask(t *testing.T) {
	k := newKernel()
	c, err := New(Config{Kernel: k, Spec: periodicSpec("camera"), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Task("camer!"); !ok {
		t.Fatal("handler task missing")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Task("camer!"); ok {
		t.Fatal("handler task survived Close")
	}
}

func TestOverheadChargedPerJob(t *testing.T) {
	k := newKernel()
	poll := 500 * time.Nanosecond
	c, err := New(Config{Kernel: k, Spec: periodicSpec("cam"), CommandPollCost: poll})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(10*time.Millisecond + 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	st := c.Task().Stats()
	wantResp := float64(50*time.Microsecond + poll)
	if st.Response.Average != wantResp {
		t.Fatalf("response = %v, want exec+poll = %v", st.Response.Average, wantResp)
	}
}

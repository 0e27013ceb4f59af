package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// coneXML renders a small periodic component pinned to a CPU with
// optional in/out topics.
func coneXML(name string, cpu int, usage float64, in, out string) string {
	s := fmt.Sprintf(`<component name=%q type="periodic" cpuusage="%g">
  <implementation bincode="cone.Body"/>
  <periodictask frequence="100" runoncup="%d" priority="5"/>
`, name, usage, cpu)
	if in != "" {
		s += fmt.Sprintf(`  <inport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", in)
	}
	if out != "" {
		s += fmt.Sprintf(`  <outport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", out)
	}
	return s + `</component>`
}

// coneRig builds a DRCR over numCPU simulated CPUs.
func coneRig(t *testing.T, numCPU int) *DRCR {
	t.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: numCPU, Timing: &noNoise, Seed: 11})
	d, err := New(fw, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// coneOps replays a fixed per-cone operation script: deploy a
// provider→consumer pair on topic t<c>, then churn through disable/
// enable, revoke/restore, and a remove/redeploy cycle. Every target
// lives on CPU c and every topic is cone-private, so scripts on
// different cones commute — the final state must not depend on how the
// goroutines interleaved.
func coneOps(t testing.TB, d *DRCR, c int) {
	topic := fmt.Sprintf("t%d", c)
	prov, cons := fmt.Sprintf("pv%d", c), fmt.Sprintf("cs%d", c)
	deploy := func(name, in, out string) {
		desc, err := descriptor.Parse(coneXML(name, c, 0.01, in, out))
		if err != nil {
			t.Errorf("cone %d: parse %s: %v", c, name, err)
			return
		}
		if err := d.Deploy(desc); err != nil {
			t.Errorf("cone %d: deploy %s: %v", c, name, err)
		}
	}
	deploy(prov, "", topic)
	deploy(cons, topic, "")
	for i := 0; i < 25; i++ {
		if err := d.Disable(prov); err != nil {
			t.Errorf("cone %d: disable: %v", c, err)
		}
		if err := d.Enable(prov); err != nil {
			t.Errorf("cone %d: enable: %v", c, err)
		}
		if err := d.RevokeBudget(cons, "cone churn"); err != nil {
			t.Errorf("cone %d: revoke: %v", c, err)
		}
		if err := d.RestoreBudget(cons); err != nil {
			t.Errorf("cone %d: restore: %v", c, err)
		}
		if i%5 == 0 {
			if err := d.Remove(cons); err != nil {
				t.Errorf("cone %d: remove: %v", c, err)
			}
			deploy(cons, topic, "")
		}
	}
}

// coneStateDigest folds every component's observable final state.
func coneStateDigest(d *DRCR) string {
	h := sha256.New()
	for _, info := range d.Components() {
		fmt.Fprintf(h, "%s|%v|%v|", info.Name, info.State, info.Revoked)
		keys := make([]string, 0, len(info.Bindings))
		for k := range info.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s->%s,", k, info.Bindings[k])
		}
		h.Write([]byte("\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestConcurrentConesMatchSequential runs four independent dependency
// cones from four concurrent clients against one DRCR and checks the
// final component states equal a sequential replay: the one executive
// lock must serialise concurrent management calls without changing any
// lifecycle outcome (run it under -race). A client whose resolution
// merges into another client's running drain returns before it
// settles, so the test repeats the race: a drain that stopped without
// picking up work staged at its last check would leave that work
// undrained and show up here as a lost state.
func TestConcurrentConesMatchSequential(t *testing.T) {
	const cones, rounds = 4, 100

	seq := coneRig(t, cones)
	for c := 0; c < cones; c++ {
		coneOps(t, seq, c)
	}
	want := coneStateDigest(seq)

	for r := 0; r < rounds; r++ {
		d := coneRig(t, cones)
		var wg sync.WaitGroup
		for c := 0; c < cones; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				coneOps(t, d, c)
			}(c)
		}
		wg.Wait()
		if got := coneStateDigest(d); got != want {
			t.Fatalf("round %d: concurrent final state digest %s != sequential %s", r, got, want)
		}
	}
}

// TestListenerInlineLifecycleCall pins the listener contract: listeners
// run without d.mu, so one may call a lifecycle operation inline. Here a
// listener disables the provider the moment its consumer goes ACTIVE;
// the nested call's resolution merges into the running drain, which
// cascades the consumer back down before Deploy returns.
func TestListenerInlineLifecycleCall(t *testing.T) {
	d := coneRig(t, 2)
	fired := false
	remove := d.AddListener(func(ev Event) {
		if ev.Component == "cs0" && ev.To == Active && !fired {
			fired = true
			if err := d.Disable("pv0"); err != nil {
				t.Errorf("inline Disable: %v", err)
			}
		}
	})
	defer remove()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, src := range []string{coneXML("pv0", 0, 0.01, "", "t0"), coneXML("cs0", 1, 0.01, "t0", "")} {
			desc, err := descriptor.Parse(src)
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Deploy(desc); err != nil {
				t.Error(err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a lifecycle call from a listener deadlocked")
	}
	if !fired {
		t.Fatal("cs0 never went ACTIVE")
	}
	for name, want := range map[string]State{"pv0": Disabled, "cs0": Unsatisfied} {
		if info, _ := d.Component(name); info.State != want {
			t.Errorf("%s final state %v, want %v", name, info.State, want)
		}
	}
	evs := d.Events()
	if len(evs) < 2 {
		t.Fatalf("only %d events", len(evs))
	}
	tail := evs[len(evs)-2:]
	want := []Event{
		{Component: "pv0", From: Active, To: Disabled, Reason: "disabled"},
		{Component: "cs0", From: Active, To: Unsatisfied, Reason: "inport t0 lost its provider"},
	}
	for i, w := range want {
		got := tail[i]
		if got.Component != w.Component || got.From != w.From || got.To != w.To || got.Reason != w.Reason {
			t.Errorf("event tail[%d] = %v, want %s %v->%v (%s)", i, got, w.Component, w.From, w.To, w.Reason)
		}
	}
}

// TestListenerDisablesProviderBeforeActivation: a listener that takes
// the provider away while its consumer is only SATISFIED (the drain has
// dropped d.mu to deliver the event) must not see the consumer activate
// unbound: the drain re-checks the inports after the callout and demotes
// it instead, so no ACTIVE component ever lacks a required provider.
func TestListenerDisablesProviderBeforeActivation(t *testing.T) {
	d := coneRig(t, 2)
	fired := false
	remove := d.AddListener(func(ev Event) {
		if ev.Component == "cs0" && ev.To == Satisfied && !fired {
			fired = true
			if err := d.Disable("pv0"); err != nil {
				t.Errorf("inline Disable: %v", err)
			}
		}
	})
	defer remove()
	for _, src := range []string{coneXML("pv0", 0, 0.01, "", "t0"), coneXML("cs0", 1, 0.01, "t0", "")} {
		desc, err := descriptor.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Deploy(desc); err != nil {
			t.Fatal(err)
		}
	}
	if !fired {
		t.Fatal("cs0 never went SATISFIED")
	}
	for _, ev := range d.Events() {
		if ev.Component == "cs0" && ev.To == Active {
			t.Errorf("cs0 activated after its provider left: %v", ev)
		}
	}
	evs := d.Events()
	last := evs[len(evs)-1]
	if last.Component != "cs0" || last.From != Satisfied || last.To != Unsatisfied || last.Reason != "inport t0 unsatisfied" {
		t.Errorf("last event %v, want cs0 SATISFIED->UNSATISFIED (inport t0 unsatisfied)", last)
	}
	if info, _ := d.Component("cs0"); info.State != Unsatisfied {
		t.Errorf("cs0 final state %v, want UNSATISFIED", info.State)
	}
}

// TestListenerRemovesRemoteProviderBeforeActivation: a listener that
// withdraws the only (remote) provider of an inport while its consumer
// is SATISFIED must not leave the drain retrying the mode it chose
// before the withdrawal. The consumer's degraded mode drops that inport,
// so the drain must settle with it ACTIVE in that mode, bound to the
// inport that still has a provider.
func TestListenerRemovesRemoteProviderBeforeActivation(t *testing.T) {
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 11})
	d, err := New(fw, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := descriptor.Parse(coneXML("rb", 1, 0.01, "", "b"))
	if err != nil {
		t.Fatal(err)
	}
	rb := remote.OutPorts[0]
	cons, err := descriptor.Parse(`<component name="cs" type="periodic" cpuusage="0.1">
  <implementation bincode="cone.Body"/>
  <periodictask frequence="100" runoncup="1" priority="5"/>
  <inport name="a" interface="RTAI.SHM" type="Integer" size="64"/>
  <inport name="b" interface="RTAI.SHM" type="Integer" size="64"/>
  <mode name="solo" cpuusage="0.05" drops="b"/>
</component>`)
	if err != nil {
		t.Fatal(err)
	}
	prov, err := descriptor.Parse(coneXML("pa", 0, 0.01, "", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddRemoteProvider(rb, "rb@node1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(prov); err != nil {
		t.Fatal(err)
	}
	fired := false
	d.AddListener(func(ev Event) {
		if ev.Component == "cs" && ev.To == Satisfied && !fired {
			fired = true
			if err := d.RemoveRemoteProvider(rb, "rb@node1"); err != nil {
				t.Errorf("inline RemoveRemoteProvider: %v", err)
			}
		}
	})

	done := make(chan error, 1)
	go func() { done <- d.Deploy(cons) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		// The drain still holds d.mu; Close would block behind it.
		t.Fatal("Deploy did not return: the drain kept retrying a stale mode")
	}
	t.Cleanup(d.Close)
	if !fired {
		t.Fatal("cs never went SATISFIED")
	}
	info, _ := d.Component("cs")
	if info.State != Active || info.Mode != 1 {
		t.Fatalf("cs final state %v mode %d, want ACTIVE in mode 1", info.State, info.Mode)
	}
	if len(info.Bindings) != 1 || info.Bindings["a"] != "pa" {
		t.Errorf("cs bindings %v, want only a->pa", info.Bindings)
	}
}

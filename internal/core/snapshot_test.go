package core

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/descriptor"
)

// TestBindingsSharedUnderRebind pins that Info snapshots may share the
// DRCR's binding map: a reader ranges over Component(name).Bindings and
// every Components() entry while another goroutine rebinds the same
// consumer through Downgrade, AllowPromotion, Disable and Enable of its
// provider and of the consumer itself. Under -race any write to a map a
// snapshot holds is reported; and a snapshot taken before a rebind must
// still read as it did when taken.
func TestBindingsSharedUnderRebind(t *testing.T) {
	_, _, d := newRig(t)
	if err := d.Deploy(mustParse(t, calcXML)); err != nil {
		t.Fatal(err)
	}
	if err := d.Deploy(mustParse(t, dispModesXML)); err != nil {
		t.Fatal(err)
	}
	if info, _ := d.Component("disp"); info.Bindings["lat"] != "calc" {
		t.Fatalf("disp bindings %v, want lat->calc", info.Bindings)
	}

	const rounds = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			// Full mode -> solo (lat dropped) -> full again.
			if err := d.Downgrade("disp", "test"); err != nil {
				t.Errorf("round %d: Downgrade: %v", i, err)
				return
			}
			if err := d.AllowPromotion("disp"); err != nil {
				t.Errorf("round %d: AllowPromotion: %v", i, err)
				return
			}
			// Provider leaves (disp degrades) and returns (disp promotes).
			if err := d.Disable("calc"); err != nil {
				t.Errorf("round %d: Disable calc: %v", i, err)
				return
			}
			if err := d.Enable("calc"); err != nil {
				t.Errorf("round %d: Enable calc: %v", i, err)
				return
			}
			// The consumer's own deactivation drops its map.
			if err := d.Disable("disp"); err != nil {
				t.Errorf("round %d: Disable disp: %v", i, err)
				return
			}
			if err := d.Enable("disp"); err != nil {
				t.Errorf("round %d: Enable disp: %v", i, err)
				return
			}
		}
	}()

	type held struct {
		m    map[string]string
		copy map[string]string
	}
	var kept []held
	reads := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		info, _ := d.Component("disp")
		for port, prov := range info.Bindings {
			if port != "lat" || prov != "calc" {
				t.Fatalf("disp snapshot binds %s->%s, want only lat->calc", port, prov)
			}
		}
		for _, ci := range d.Components() {
			for port, prov := range ci.Bindings {
				reads += len(port) + len(prov)
			}
		}
		if len(kept) < 64 {
			kept = append(kept, held{info.Bindings, maps.Clone(info.Bindings)})
		}
	}
	wg.Wait()
	if reads == 0 {
		t.Fatal("reader never saw a bound inport")
	}
	for i, h := range kept {
		if !maps.Equal(h.m, h.copy) {
			t.Fatalf("snapshot %d changed after later rebinds: %v, taken as %v", i, h.m, h.copy)
		}
	}
	if info, _ := d.Component("disp"); info.State != Active || info.Bindings["lat"] != "calc" {
		t.Fatalf("disp ends %v with bindings %v, want ACTIVE bound lat->calc", info.State, info.Bindings)
	}
}

// TestComponentsAllocsOnce pins the cost of a snapshot read: over bound
// consumers with no outports and no modes, Components() allocates only
// its result slice. Binding maps are shared, not copied.
func TestComponentsAllocsOnce(t *testing.T) {
	d := coneRig(t, 2)
	remote, err := descriptor.Parse(coneXML("rp", 1, 0.01, "", "feed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddRemoteProvider(remote.OutPorts[0], "rp@n1"); err != nil {
		t.Fatal(err)
	}
	const consumers = 16
	for i := 0; i < consumers; i++ {
		desc, err := descriptor.Parse(coneXML(fmt.Sprintf("c%02d", i), i%2, 0.01, "feed", ""))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Deploy(desc); err != nil {
			t.Fatal(err)
		}
	}
	infos := d.Components()
	if len(infos) != consumers {
		t.Fatalf("Components() = %d entries, want %d", len(infos), consumers)
	}
	for _, info := range infos {
		if info.State != Active || info.Bindings["feed"] != "rp@n1" || info.OutPorts != nil || info.Modes != nil {
			t.Fatalf("%s: state %v bindings %v outports %v modes %v; want ACTIVE, feed->rp@n1, no outports or modes",
				info.Name, info.State, info.Bindings, info.OutPorts, info.Modes)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if len(d.Components()) != consumers {
			t.Fatal("component set changed")
		}
	})
	if allocs != 1 {
		t.Fatalf("Components() over %d bound consumers allocated %.2f objects, want 1 (the result slice)", consumers, allocs)
	}
}

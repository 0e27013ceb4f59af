package obs

import (
	"testing"
	"time"
)

func TestFlightRecorderCapturesWindow(t *testing.T) {
	p := NewPlane(Options{})
	p.frPre, p.frPost = 4, 3
	for i := 0; i < 10; i++ {
		p.Deploy(at(time.Duration(i)*time.Millisecond), "warm", "U", "")
	}
	trig := p.Violation(at(20*time.Millisecond), "calc", "BudgetOverrun", "", 0)
	if got := p.FlightDumps(); len(got) != 1 {
		t.Fatalf("violation opened %d dumps", len(got))
	}
	d := p.FlightDumps()[0]
	if d.Trigger != trig || d.Complete() {
		t.Fatalf("fresh dump: %+v", d)
	}
	// Pre-window: the frPre most recent spans, trigger included.
	if len(d.Spans) != 4 || d.Spans[len(d.Spans)-1].ID != trig {
		t.Fatalf("pre-window wrong: %d spans, last %d", len(d.Spans), d.Spans[len(d.Spans)-1].ID)
	}
	// Post-window: the next 3 spans complete it; later spans don't grow it.
	for i := 0; i < 6; i++ {
		p.Deploy(at(30*time.Millisecond), "post", "U", "")
	}
	d2 := p.FlightDumps()[0]
	if d2.Name != d.Name || !d2.Complete() || len(d2.Spans) != 7 {
		t.Fatalf("post-window wrong: name=%q complete=%v spans=%d", d2.Name, d2.Complete(), len(d2.Spans))
	}
	wantAt := at(20 * time.Millisecond)
	if d2.At != wantAt {
		t.Fatalf("dump At %v, want %v", d2.At, wantAt)
	}
}

func TestFlightRecorderTriggerKindsAndCap(t *testing.T) {
	p := NewPlane(Options{})
	p.frPre, p.frPost, p.frMax = 2, 1, 3
	p.Violation(at(0), "a", "BudgetOverrun", "", 0)
	p.Escalate(at(0), "b", "restart", "too many restarts", 0)
	p.NodeLoss(at(0), "n5", 1, "unreachable", 0)
	if got := len(p.FlightDumps()); got != 3 {
		t.Fatalf("3 trigger kinds opened %d dumps", got)
	}
	// Cap reached: further triggers are dropped, not rotated.
	p.Violation(at(0), "c", "BudgetOverrun", "", 0)
	if got := len(p.FlightDumps()); got != 3 {
		t.Fatalf("cap not enforced: %d dumps", got)
	}
	// Non-trigger kinds never open dumps.
	q := NewPlane(Options{})
	q.Deploy(at(0), "x", "U", "")
	q.Revoke(at(0), "x", "over budget")
	if len(q.FlightDumps()) != 0 {
		t.Fatalf("non-trigger kinds opened dumps")
	}
}

func TestTriggerFlightExplicitAndDedupe(t *testing.T) {
	p := NewPlane(Options{})
	p.frPre, p.frPost = 2, 2
	p.Deploy(at(0), "calc", "U", "")
	p.TriggerFlight("split-brain-calc", at(time.Millisecond))
	p.TriggerFlight("split-brain-calc", at(2*time.Millisecond)) // dedupe
	dumps := p.FlightDumps()
	if len(dumps) != 1 {
		t.Fatalf("dedupe failed: %d dumps", len(dumps))
	}
	d := dumps[0]
	if d.Name != "split-brain-calc" || d.Trigger != 0 || d.At != at(time.Millisecond) {
		t.Fatalf("explicit dump: %+v", d)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	p := NewPlane(Options{})
	p.frMax = 0 // recorder off
	p.Violation(at(0), "a", "BudgetOverrun", "", 0)
	p.TriggerFlight("manual", at(0))
	if len(p.FlightDumps()) != 0 {
		t.Fatal("a plane with the recorder off captured dumps")
	}
	var nilPlane *Plane
	nilPlane.TriggerFlight("x", at(0)) // must not panic
	if nilPlane.FlightDumps() != nil {
		t.Fatal("nil plane returned dumps")
	}
}

// Returned dumps are snapshots: mutating them must not corrupt the
// recorder's retained state.
func TestFlightDumpsAreCopies(t *testing.T) {
	p := NewPlane(Options{})
	p.frPre, p.frPost = 2, 1
	p.Violation(at(0), "a", "BudgetOverrun", "", 0)
	d := p.FlightDumps()[0]
	if len(d.Spans) == 0 {
		t.Fatal("empty dump")
	}
	d.Spans[0].Component = "clobbered"
	fresh := p.FlightDumps()[0]
	if fresh.Spans[0].Component == "clobbered" {
		t.Fatal("FlightDumps exposed internal storage")
	}
}

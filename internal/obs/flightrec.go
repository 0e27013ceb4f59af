// Flight recorder: the span ring already runs continuously and bounded;
// on a trigger — a contract violation, a supervisor escalation, a node
// loss, or an explicit trip (the cluster's split-brain guard) — the
// recorder freezes a window of spans around the trigger into a named
// dump that survives ring eviction, retrievable via console `flightrec`.
// A dump captures the flightPre most recent spans up to and including
// the trigger immediately (copied out of the ring before eviction can
// touch them), then collects the next flightPost spans as they are
// emitted. At most flightMax dumps are retained per plane; once the cap
// is reached the trigger check is a pair of integer compares, keeping
// the emit path allocation-free in steady state.

package obs

import (
	"strconv"

	"repro/internal/sim"
)

// Flight-recorder window and cap.
const (
	flightPre  = 48
	flightPost = 16
	flightMax  = 8
)

// FlightDump is one frozen pre/post-trigger span window.
type FlightDump struct {
	// Name identifies the dump: "<trigger-kind>-<component>-<id>" for
	// automatic triggers, the caller's name for explicit ones.
	Name string
	// At is the trigger instant (sim clock).
	At sim.Time
	// Trigger is the local ID of the span that tripped the recorder
	// (0 for explicit trips).
	Trigger SpanID
	// Spans is the window, oldest first: up to flightPre spans ending at
	// the trigger, then up to flightPost spans after it.
	Spans []Span
	// complete is set once the post-trigger window filled (or the run
	// ended and the dump was finalised short).
	complete bool
}

// pendingDump is a dump still collecting its post-trigger window.
type pendingDump struct {
	d      *FlightDump
	remain int
}

// flightTrigger reports whether a span kind trips the recorder.
func flightTrigger(k Kind) bool {
	return k == KindViolation || k == KindEscalate || k == KindNodeLoss
}

// noteFlight feeds one just-emitted span to the recorder: first into
// any pending post-trigger windows, then as a potential new trigger.
// Called from emit after the span is in the ring.
func (p *Plane) noteFlight(s Span) {
	for i := 0; i < len(p.frPending); {
		pd := &p.frPending[i]
		pd.d.Spans = append(pd.d.Spans, s)
		pd.remain--
		if pd.remain <= 0 {
			pd.d.complete = true
			p.frPending = append(p.frPending[:i], p.frPending[i+1:]...)
			continue
		}
		i++
	}
	if !flightTrigger(s.Kind) {
		return
	}
	if len(p.frDumps) >= p.frMax {
		return
	}
	name := s.Kind.String() + "-" + s.Component + "-" + strconv.FormatUint(uint64(s.ID), 10)
	p.openDump(name, s.At, s.ID)
}

// TriggerFlight trips the recorder explicitly — the split-brain guard
// and other management code use it. The pre-trigger window is frozen
// immediately; the post window collects the next emitted spans. A
// duplicate name or a full recorder is a no-op.
func (p *Plane) TriggerFlight(name string, at sim.Time) {
	if !p.enabled() || len(p.frDumps) >= p.frMax {
		return
	}
	for i := range p.frDumps {
		if p.frDumps[i].Name == name {
			return
		}
	}
	p.openDump(name, at, 0)
}

// openDump freezes the pre-trigger window and registers the post
// collector. trigger is the tripping span's ID (already in the ring),
// or 0 for explicit trips.
func (p *Plane) openDump(name string, at sim.Time, trigger SpanID) {
	d := &FlightDump{Name: name, At: at, Trigger: trigger}
	lo := SpanID(1)
	if p.next >= SpanID(p.frPre) {
		lo = p.next - SpanID(p.frPre) + 1
	}
	d.Spans = make([]Span, 0, p.frPre+p.frPost)
	for _, s := range p.SpansSince(lo) {
		d.Spans = append(d.Spans, s)
	}
	p.frDumps = append(p.frDumps, d)
	if p.frPost > 0 {
		p.frPending = append(p.frPending, pendingDump{d: d, remain: p.frPost})
	} else {
		d.complete = true
	}
}

// FlightDumps returns the retained dumps, oldest first. Dumps are deep
// copies: an open dump keeps appending into its own window after this
// returns, so handing out the live slice would let those appends write
// under the caller.
func (p *Plane) FlightDumps() []FlightDump {
	if p == nil {
		return nil
	}
	out := make([]FlightDump, len(p.frDumps))
	for i, d := range p.frDumps {
		out[i] = copyDump(d)
	}
	return out
}

func copyDump(d *FlightDump) FlightDump {
	out := *d
	out.Spans = append([]Span(nil), d.Spans...)
	return out
}

// Complete reports whether the dump's post-trigger window has filled.
func (d FlightDump) Complete() bool { return d.complete }

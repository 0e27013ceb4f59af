package rtos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// TraceEventKind enumerates scheduler trace events.
type TraceEventKind int

// Trace event kinds.
const (
	TraceRelease TraceEventKind = iota + 1
	TraceDispatch
	TracePreempt
	TraceRotate
	TraceComplete
	TraceSkip
)

// traceEventNames is the static name table; String is called on the
// dispatch hot path when a trace sink is attached, so it must not
// allocate for any defined kind.
var traceEventNames = [...]string{
	TraceRelease:  "release",
	TraceDispatch: "dispatch",
	TracePreempt:  "preempt",
	TraceRotate:   "rotate",
	TraceComplete: "complete",
	TraceSkip:     "skip",
}

func (k TraceEventKind) String() string {
	if k > 0 && int(k) < len(traceEventNames) {
		return traceEventNames[k]
	}
	return "TraceEventKind(" + strconv.Itoa(int(k)) + ")"
}

// TraceEvent is one scheduler occurrence.
type TraceEvent struct {
	At   sim.Time
	Kind TraceEventKind
	Task string
	CPU  int
}

// Tracer records scheduler events while attached to a kernel. Use it to
// inspect or visualise what the dispatcher did — the RTAI /proc trace
// analogue.
type Tracer struct {
	events []TraceEvent
	limit  int
}

// StartTrace attaches a tracer recording at most limit events (0 means
// 100000). Only one tracer can be attached; starting a new one replaces
// the old.
func (k *Kernel) StartTrace(limit int) *Tracer {
	if limit <= 0 {
		limit = 100000
	}
	tr := &Tracer{limit: limit}
	k.tracer = tr
	return tr
}

// StopTrace detaches the tracer.
func (k *Kernel) StopTrace() { k.tracer = nil }

// TraceSink receives every scheduler trace event as it happens. It lets
// an external observer (the obs plane) fold scheduler activity into its
// own stream without rtos importing it. The sink runs on the dispatch
// hot path and must not allocate.
type TraceSink func(at sim.Time, kind TraceEventKind, task string, cpu int)

// SetTraceSink installs (or, with nil, removes) the live trace sink.
// The sink is independent of StartTrace's buffering Tracer; both can be
// attached at once.
func (k *Kernel) SetTraceSink(sink TraceSink) { k.sink = sink }

func (k *Kernel) trace(at sim.Time, kind TraceEventKind, task string, cpuID int) {
	if k.sink != nil {
		k.sink(at, kind, task, cpuID)
	}
	tr := k.tracer
	if tr == nil || len(tr.events) >= tr.limit {
		return
	}
	tr.events = append(tr.events, TraceEvent{At: at, Kind: kind, Task: task, CPU: cpuID})
}

// Gantt renders the trace as an ASCII Gantt chart over [from, to) with
// the given column resolution. Each task gets a row; '#' marks execution,
// '.' marks released-but-waiting time, '*' marks a skipped release.
func (t *Tracer) Gantt(from, to sim.Time, cols int) string {
	if cols <= 0 {
		cols = 80
	}
	if to <= from {
		return "(empty window)\n"
	}
	span := to.Sub(from)
	colOf := func(at sim.Time) int {
		if at < from {
			return 0
		}
		c := int(int64(at.Sub(from)) * int64(cols) / int64(span))
		if c >= cols {
			c = cols - 1
		}
		return c
	}
	type rowState struct {
		cells   []byte
		running bool
		waiting bool
		lastCol int
	}
	rows := map[string]*rowState{}
	names := []string{}
	rowFor := func(task string) *rowState {
		r, ok := rows[task]
		if !ok {
			cells := make([]byte, cols)
			for i := range cells {
				cells[i] = ' '
			}
			r = &rowState{cells: cells}
			rows[task] = r
			names = append(names, task)
		}
		return r
	}
	fill := func(r *rowState, upto int) {
		ch := byte(' ')
		if r.running {
			ch = '#'
		} else if r.waiting {
			ch = '.'
		}
		if ch == ' ' {
			r.lastCol = upto
			return
		}
		for i := r.lastCol; i <= upto && i < len(r.cells); i++ {
			if r.cells[i] == ' ' || (ch == '#' && r.cells[i] == '.') {
				r.cells[i] = ch
			}
		}
		r.lastCol = upto
	}
	for _, ev := range t.events {
		if ev.At < from || ev.At >= to {
			continue
		}
		col := colOf(ev.At)
		r := rowFor(ev.Task)
		fill(r, col)
		switch ev.Kind {
		case TraceRelease:
			r.waiting = true
		case TraceDispatch:
			r.waiting, r.running = false, true
		case TracePreempt, TraceRotate:
			r.running, r.waiting = false, true
		case TraceComplete:
			r.running, r.waiting = false, false
		case TraceSkip:
			if col < len(r.cells) {
				r.cells[col] = '*'
			}
		}
		r.lastCol = col
	}
	// Extend final states to the window edge.
	for _, r := range rows {
		fill(r, cols-1)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "gantt %v .. %v (%v/col)\n", from, to, time.Duration(int64(span)/int64(cols)))
	for _, n := range names {
		fmt.Fprintf(&b, "%-8s |%s|\n", n, rows[n].cells)
	}
	b.WriteString("legend: #=running .=ready/waiting *=release skipped\n")
	return b.String()
}

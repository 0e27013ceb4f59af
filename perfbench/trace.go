package main

import "time"

// Tracing from outside the program: the benchmark wraps every call it
// makes into a layer (parse, compile, deploy and lifecycle calls, bundle
// install/start/stop, kernel slices, cluster barrier steps, snapshot and
// digest reads) in a span kept in memory, and derives per-layer self time
// from the nesting. Spans inside the program are not recorded here.

// spanKey names one kind of layer call.
type spanKey struct{ layer, name string }

// spanRec is one recorded span; Parent is 0 for a root span.
type spanRec struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

type frame struct {
	id    int
	start time.Time
	child time.Duration
}

// maxSamples bounds the durations a tracer keeps per call kind.
const maxSamples = 1 << 16

// tracer records the spans of one round. Only a tracer created with keep
// retains the individual spans for the dump; every tracer keeps per-kind
// duration samples and per-layer self time.
type tracer struct {
	t0      time.Time
	keep    bool
	spans   []spanRec
	stack   []frame
	nextID  int
	self    map[string]time.Duration
	samples map[spanKey][]time.Duration
}

func newTracer(keep bool) *tracer {
	return &tracer{
		t0:      time.Now(),
		keep:    keep,
		self:    map[string]time.Duration{},
		samples: map[spanKey][]time.Duration{},
	}
}

// timed runs f as one call into layer and returns its wall time. On a nil
// tracer only the duration is taken. Otherwise the call is also recorded
// as a span nested in the innermost open span, and its self time (its
// duration minus the part its child spans cover) is charged to layer.
func (t *tracer) timed(layer, name string, f func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	t.nextID++
	id, parent := t.nextID, 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, frame{id: id, start: time.Now()})
	err := f()
	end := time.Now()
	fr := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end.Sub(fr.start)
	t.self[layer] += d - fr.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	k := spanKey{layer, name}
	if s := t.samples[k]; len(s) < maxSamples {
		t.samples[k] = append(s, d)
	}
	if t.keep {
		t.spans = append(t.spans, spanRec{
			ID: id, Parent: parent, Layer: layer, Name: name,
			StartNS: fr.start.Sub(t.t0).Nanoseconds(), DurNS: d.Nanoseconds(),
		})
	}
	return d, err
}

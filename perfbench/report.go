package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// contractMetric is one metric of the final JSON line.
type contractMetric struct {
	name string
	unit string
}

// e2eMetrics are the final line's metrics with --trace 0, in
// BENCHMARK.json order. Every workload reports every one of them.
var e2eMetrics = []contractMetric{
	{"setup_s", "s"}, {"round_ms", "ms"}, {"call_p50_us", "us"}, {"call_p99_us", "us"}, {"heap_live_mb", "MB"},
}

// layerMetrics are the final line's metrics with --trace 1, in
// BENCHMARK.json order. The wall-clock ones are measured on every
// workload; a count or ratio of a layer a workload bypasses reads 0.
var layerMetrics = []contractMetric{
	{"descriptor.parses", "count"}, {"descriptor.parse_us_p50", "us"},
	{"plan.compiles", "count"}, {"plan.cache_hits", "count"}, {"plan.hit_ratio", "ratio"},
	{"plan.applies", "count"}, {"plan.fallbacks", "count"}, {"plan.apply_ratio", "ratio"},
	{"policy.admissions", "count"}, {"policy.denials", "count"}, {"policy.admit_ratio", "ratio"},
	{"policy.mc_verdicts", "count"}, {"policy.mc_verdict_us_p50", "us"},
	{"core.ops", "count"}, {"core.resolve_drains", "count"}, {"core.resolve_rounds", "count"},
	{"core.rounds_per_drain", "ratio"}, {"core.worklist_depth_max", "count"},
	{"core.transitions", "count"}, {"core.transitions_per_op", "ratio"},
	{"core.downgrades", "count"}, {"core.upgrades", "count"},
	{"rtos.events", "count"}, {"rtos.jobs", "count"}, {"rtos.misses", "count"}, {"rtos.skips", "count"},
	{"rtos.triggers_sent", "count"}, {"rtos.triggers_dropped", "count"},
	{"obs.spans_emitted", "count"}, {"obs.spans_per_op", "ratio"},
	{"obs.snapshot_us_p50", "us"}, {"obs.digest_us_p50", "us"},
	{"contract.violations", "count"}, {"contract.revocations", "count"},
	{"contract.restores", "count"}, {"contract.quarantines", "count"},
	{"fault.injections", "count"}, {"fault.clears", "count"},
	{"supervise.restarts", "count"}, {"supervise.escalations", "count"},
	{"cluster.barriers", "count"}, {"cluster.migrations", "count"},
	{"cluster.placements", "count"}, {"cluster.converged", "count"},
	{"net.sent", "count"}, {"net.delivered", "count"}, {"net.dropped", "count"}, {"net.delivery_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// entry is one reported metric. Class says how to read it: "e2e" and
// "layer" are wall-clock figures of this host (noisy); "sim" is a
// simulated-time result and "count" an exact count, both of which repeat
// exactly for a seed.
type entry struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Class string  `json:"class"`
}

type report struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Traced       bool              `json:"traced"`
	Rounds       int               `json:"rounds"`
	Host         map[string]string `json:"host"`
	StreamDigest string            `json:"stream_digest"`
	StateDigest  string            `json:"state_digest"`
	Entries      []entry           `json:"metrics"`
	Notes        []string          `json:"notes,omitempty"`
	Failures     []string          `json:"failures,omitempty"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	spans        []spanRec
}

func (rep *report) add(name string, v float64, unit, class string) {
	rep.Entries = append(rep.Entries, entry{Name: name, Value: v, Unit: unit, Class: class})
}

func (rep *report) lookup(name string) (entry, bool) {
	for _, e := range rep.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return entry{}, false
}

// report checks that every round reproduced the first and turns the
// rounds into metrics: wall-clock figures from the untraced rounds, exact
// counts and simulated results from the first round, per-layer figures
// from the traced rounds.
func (res *result) report() *report {
	first := res.rounds[0]
	rep := &report{
		Workload: res.w.name, Seed: res.seed, Traced: res.traced, Rounds: len(res.rounds),
		Host: map[string]string{
			"nproc":         fmt.Sprint(runtime.NumCPU()),
			"GOMAXPROCS":    fmt.Sprint(runtime.GOMAXPROCS(0)),
			"GOGC":          fmt.Sprint(gcPercent),
			"go":            runtime.Version(),
			"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
			"kernel_shards": fmt.Sprint(res.w.shards),
			"node_advance":  res.w.advance,
			"calls":         res.w.calls,
		},
		StreamDigest: first.streamDigest,
		StateDigest:  first.state,
		Notes:        first.notes,
	}
	var plain, traced []*round
	for i, r := range res.rounds {
		for _, f := range r.failures {
			rep.Failures = append(rep.Failures, fmt.Sprintf("round %d: %s", i, f))
		}
		if r.streamDigest != first.streamDigest || r.state != first.state {
			rep.Failures = append(rep.Failures, fmt.Sprintf("round %d (traced %v): digests differ from round 0", i, r.tr != nil))
		}
		if !maps.Equal(r.counts, first.counts) || !maps.Equal(r.sims, first.sims) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("round %d (traced %v): exact counts or simulated results differ from round 0", i, r.tr != nil))
		}
		rep.Attempted += len(r.ops) + len(r.advances)
		rep.Failed += r.opErrs
		if r.firstErr != "" && len(rep.Notes) < 8 {
			rep.Notes = append(rep.Notes, fmt.Sprintf("round %d: %d op errors, first: %s", i, r.opErrs, r.firstErr))
		}
		if r.tr == nil {
			plain = append(plain, r)
		} else {
			traced = append(traced, r)
		}
	}
	res.endToEnd(rep, plain)
	for _, k := range sortedKeys(first.sims) {
		unit := "ratio"
		if k == "sim_latency_avg_ns" || k == "sim_latency_avedev_ns" {
			unit = "ns"
		}
		rep.add(k, first.sims[k], unit, "sim")
	}
	c := first.counts
	for _, k := range sortedKeys(c) {
		rep.add(k, c[k], "count", "count")
	}
	for _, d := range []struct {
		name     string
		num, den float64
	}{
		{"plan.hit_ratio", c["plan.cache_hits"], c["plan.cache_hits"] + c["plan.compiles"]},
		{"plan.apply_ratio", c["plan.applies"], c["plan.applies"] + c["plan.fallbacks"]},
		{"policy.admit_ratio", c["policy.admissions"], c["policy.admissions"] + c["policy.denials"]},
		{"core.rounds_per_drain", c["core.resolve_rounds"], c["core.resolve_drains"]},
		{"core.transitions_per_op", c["core.transitions"], c["core.ops"]},
		{"obs.spans_per_op", c["obs.spans_emitted"], c["core.ops"]},
		{"net.delivery_ratio", c["net.delivered"], c["net.sent"] + c["net.duplicated"]},
	} {
		rep.add(d.name, ratio(d.num, d.den), "ratio", "count")
	}
	if len(traced) > 0 {
		layerEntries(rep, plain, traced)
	}
	return rep
}

// endToEnd adds the wall-clock end-to-end metrics of the untraced rounds.
func (res *result) endToEnd(rep *report, plain []*round) {
	var setups, phases, heaps, rates, rtfs []float64
	var calls, ops []time.Duration
	var nops, nerr int
	for _, r := range plain {
		setups = append(setups, r.setup.Seconds())
		phases = append(phases, ms(r.phase))
		heaps = append(heaps, r.heapMB)
		if len(r.ops) > 0 {
			rates = append(rates, float64(len(r.ops))/r.phase.Seconds())
		}
		if r.simAdvanced > 0 {
			rtfs = append(rtfs, r.simAdvanced.Seconds()/r.phase.Seconds())
		}
		for _, o := range r.ops {
			ops = append(ops, o.d)
		}
		if res.w.calls == "op" {
			per := max(res.w.opsPerCall, 1)
			for i := 0; i+per <= len(r.ops); i += per {
				var d time.Duration
				for _, o := range r.ops[i : i+per] {
					d += o.d
				}
				calls = append(calls, d)
			}
		} else {
			calls = append(calls, r.advances...)
		}
		nops += len(r.ops)
		nerr += r.opErrs
	}
	rep.add("setup_s", median(setups), "s", "e2e")
	rep.add("round_ms", median(phases), "ms", "e2e")
	rep.add("call_p50_us", us(quantile(calls, 0.50)), "us", "e2e")
	rep.add("call_p99_us", us(quantile(calls, 0.99)), "us", "e2e")
	rep.add("call_samples", float64(len(calls)), "count", "e2e")
	rep.add("heap_live_mb", median(heaps), "MB", "e2e")
	if nops > 0 {
		rep.add("ops_per_s", median(rates), "ops/s", "e2e")
		rep.add("op_p50_us", us(quantile(ops, 0.50)), "us", "e2e")
		rep.add("op_p99_us", us(quantile(ops, 0.99)), "us", "e2e")
		rep.add("op_samples", float64(len(ops)), "count", "e2e")
		rep.add("op_error_frac", ratio(float64(nerr), float64(nops)), "ratio", "e2e")
	}
	if len(rtfs) > 0 {
		rep.add("sim_rtf", median(rtfs), "sim-s/s", "e2e")
	}
}

// layerEntries adds the traced rounds' per-call-kind latencies, per-layer
// self times, the event cost and the tracing overhead.
func layerEntries(rep *report, plain, traced []*round) {
	samples := map[spanKey][]time.Duration{}
	self := map[string]time.Duration{}
	var tphases []float64
	for _, r := range traced {
		for k, s := range r.tr.samples {
			samples[k] = append(samples[k], s...)
		}
		for l, d := range r.tr.self {
			self[l] += d
		}
		tphases = append(tphases, ms(r.phase))
		if r.tr.keep {
			rep.spans = r.tr.spans
		}
	}
	keys := make([]spanKey, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].name < keys[j].name
	})
	n := float64(len(traced))
	for _, k := range keys {
		base := k.layer + "." + k.name
		rep.add(base+"_us_p50", us(quantile(samples[k], 0.50)), "us", "layer")
		rep.add(base+"_us_p99", us(quantile(samples[k], 0.99)), "us", "layer")
		rep.add(base+"_calls_per_round", float64(len(samples[k]))/n, "count", "layer")
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range sortedKeys(self) {
		rep.add("self."+l+"_ms", ms(self[l])/n, "ms", "layer")
		rep.add("self."+l+"_share", ratio(float64(self[l]), float64(total)), "ratio", "layer")
	}
	var events, mallocs uint64
	var adv time.Duration
	var pphases []float64
	for _, r := range plain {
		events += r.events
		mallocs += r.mallocs
		for _, a := range r.advances {
			adv += a
		}
		pphases = append(pphases, ms(r.phase))
	}
	if events > 0 {
		layer := plain[0].eventLayer
		rep.add(layer+".ns_per_event", float64(adv.Nanoseconds())/float64(events), "ns", "layer")
		rep.add(layer+".allocs_per_event", ratio(float64(mallocs), float64(events)), "allocs/event", "layer")
	}
	un, tr := median(pphases), median(tphases)
	rep.add("trace.phase_untraced_ms", un, "ms", "layer")
	rep.add("trace.phase_traced_ms", tr, "ms", "layer")
	rep.add("trace.overhead_ratio", ratio(tr, un), "ratio", "layer")
}

// write prints the report, saves it and the span dump under outDir, and
// ends standard output with the one-line JSON result.
func (rep *report) write(stdout io.Writer, outDir string) error {
	w := bufio.NewWriter(stdout)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d traced=%v rounds=%d\n", rep.Workload, rep.Seed, rep.Traced, rep.Rounds)
	for _, k := range sortedKeys(rep.Host) {
		fmt.Fprintf(w, "host %s=%s\n", k, rep.Host[k])
	}
	fmt.Fprintf(w, "digest stream=%s\ndigest state=%s\n", rep.StreamDigest, rep.StateDigest)
	for _, e := range rep.Entries {
		fmt.Fprintf(w, "%-6s %-44s %16.6g %s\n", e.Class, e.Name, e.Value, e.Unit)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	if len(rep.Failures) == 0 {
		fmt.Fprintln(w, "check ok: invariants held at every checkpoint and every round reproduced round 0")
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "check FAILED: %s\n", f)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, btoi(rep.Traced)))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(rep.spans) > 0 {
		if err := writeSpans(base+"-spans.jsonl", rep.spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans %d written to %s\n", len(rep.spans), base+"-spans.jsonl")
	}

	names := e2eMetrics
	if rep.Traced {
		names = layerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, m := range names {
		e, ok := rep.lookup(m.name)
		switch {
		case ok:
			metrics[m.name] = value{e.Value, m.unit}
		case m.unit == "count" || m.unit == "ratio":
			metrics[m.name] = value{0, m.unit}
		default:
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.Failures) == 0, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile is the nearest-rank q-quantile of ds, 0 when ds is empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

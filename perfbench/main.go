// Command perfbench is the repository's layered DRCom benchmark. One
// command runs one of four named workloads against the DRCom stack with
// inputs generated from a seed, checks the outputs, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: with --trace 0 it carries the end-to-end metrics, measured with
// tracing off; with --trace 1 the per-layer metrics of a traced run.
// README.md documents the workloads, the metrics and the layers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// workload is one named input set; run executes one complete round of it
// (set-up, measured phase, checks, teardown) into r.
type workload struct {
	name string
	// calls is the closed-loop call call_p50_us and call_p99_us time:
	// "op" for management operations, "advance" for fixed simulated-time
	// advances of the kernel or the federation.
	calls string
	// opsPerCall is how many consecutive operations make one "op" call
	// (0 or 1: each operation is a call).
	opsPerCall int
	// shards and advance describe how the simulation uses host cores.
	shards  int
	advance string
	run     func(seed uint64, r *round) error
}

var workloads = []workload{
	{name: "steady-app", calls: "advance", shards: steadyShards, advance: "single node", run: runSteady},
	{name: "reconfig-storm", calls: "op", opsPerCall: stormOpsPerCall, shards: 1, advance: "single node, no simulated time", run: runStorm},
	{name: "bundle-churn", calls: "op", shards: 1, advance: "single node", run: runChurn},
	{name: "federation", calls: "advance", shards: 1, advance: "4 nodes in parallel between barriers", run: runFederation},
}

// gcPercent is the collector's target heap growth for every run. At
// the default 100 the storm's operations spent about half their CPU in
// collection, which runs on whatever other core the host lends it, and
// the storm's figures swung with the host's load; at 400 collections are
// a quarter as frequent. The live heap is measured after a forced
// collection either way.
const gcPercent = 400

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: steady-app, reconfig-storm, bundle-churn or federation")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall seconds to keep repeating measured rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics of a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "out"), "directory for the report and the span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: perfbench --workload <steady-app|reconfig-storm|bundle-churn|federation> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	debug.SetGCPercent(gcPercent)
	res, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep := res.report()
	if err := rep.write(stdout, *out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// result is every round of one run.
type result struct {
	w      workload
	seed   uint64
	traced bool
	rounds []*round
}

// measure repeats rounds of w with one seed until budget has passed. A
// traced run alternates untraced and traced rounds, so the traced ones
// can be compared with their untraced twins; it keeps the spans of its
// first traced round for the dump.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*result, error) {
	res := &result{w: w, seed: seed, traced: traced}
	need := 3
	if traced {
		need = 4
	}
	start := time.Now()
	for i := 0; len(res.rounds) < need || time.Since(start) < budget; i++ {
		r := newRound()
		if traced && i%2 == 1 {
			r.tr = newTracer(i == 1)
		}
		if err := w.run(seed, r); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		r.streamDigest = r.stream.sum()
		res.rounds = append(res.rounds, r)
	}
	return res, nil
}

// Command latbench regenerates the paper's simulated-time evaluation:
// Table 1 (the latency test in light and stress mode, for the pure-RTAI
// and the declarative hybrid implementation), the latency distribution
// histograms behind it, a scheduler Gantt chart, the design ablations
// documented in DESIGN.md, and the fault, degradation and
// predictive-admission campaigns. Wall-clock cost is perfbench's job.
//
// Usage:
//
//	latbench [-samples N] [-seed S] [-workers W] [-o FILE] [subcommand]
//
// Subcommands: table1 (the default), hist, gantt, dump, ablations,
// faults, degrade, predict, all. -o names the file dump writes its raw
// samples to (required there, rejected elsewhere); every other
// subcommand prints to stdout and writes no file, and all runs
// everything except dump. Flags may come before or after the subcommand.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/rtos"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		samples = flag.Int("samples", 60000, "latency samples per configuration")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		workers = flag.Int("workers", 0, "goroutine pool size for parallel runs (0 = NumCPU)")
		out     = flag.String("o", "", "output file for dump's CSV samples (dump only)")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"usage: latbench [flags] [table1|hist|gantt|dump|ablations|faults|degrade|predict|all]")
		flag.PrintDefaults()
	}
	flag.Parse()
	cmd := "table1"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
		_ = flag.CommandLine.Parse(flag.Args()[1:]) // exits on a bad flag
		if flag.NArg() > 0 {
			log.Fatalf("unexpected arguments after %s: %v", cmd, flag.Args())
		}
	}

	steps := []struct {
		name string
		run  func()
	}{
		{"table1", func() { runTable1(*samples, *seed, *workers) }},
		{"degrade", func() { runDegrade(*seed) }},
		{"predict", func() { runPredict(*seed) }},
		{"hist", func() { runHistograms(*samples, *seed) }},
		{"gantt", func() { runGantt(*seed) }},
		{"dump", func() { runDump(*out, *samples, *seed) }},
		{"faults", func() { runFaults(*seed) }},
		{"ablations", func() { runAblations(*seed) }},
	}
	known := cmd == "all"
	for _, s := range steps {
		known = known || s.name == cmd
	}
	if !known {
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case cmd == "dump" && *out == "":
		log.Fatal("dump needs -o FILE")
	case cmd != "dump" && *out != "":
		log.Fatalf("-o does not apply to %s", cmd)
	}
	for _, s := range steps {
		if s.name == cmd || cmd == "all" && s.name != "dump" {
			s.run()
		}
	}
}

// runGantt traces 12 ms of the §4.2 pair plus an equal-priority rival to
// show preemption, waiting, and round-robin in one picture.
func runGantt(seed uint64) {
	k := rtos.NewKernel(rtos.Config{Seed: seed})
	tr := k.StartTrace(0)
	specs := []rtos.TaskSpec{
		{Name: "calc", Type: rtos.Periodic, Period: time.Millisecond, Priority: 1, ExecTime: 300 * time.Microsecond},
		{Name: "disp", Type: rtos.Periodic, Period: 4 * time.Millisecond, Priority: 2, ExecTime: 900 * time.Microsecond},
		{Name: "peer", Type: rtos.Periodic, Period: 4 * time.Millisecond, Priority: 2, ExecTime: 900 * time.Microsecond},
	}
	for _, spec := range specs {
		task, err := k.CreateTask(spec)
		if err != nil {
			log.Fatal(err)
		}
		if err := task.Start(); err != nil {
			log.Fatal(err)
		}
	}
	if err := k.Run(12 * time.Millisecond); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Scheduler trace (1 kHz calc preempting two equal-priority 4 ms tasks):")
	fmt.Println(tr.Gantt(0, sim.Time(12*time.Millisecond), 96))
}

// runDump writes raw latency samples for external plotting.
func runDump(path string, samples int, seed uint64) {
	res, err := workload.RunLatency(workload.LatencyConfig{Hybrid: true, Samples: samples, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "sample,latency_ns")
	for i, v := range res.Samples {
		fmt.Fprintf(w, "%d,%d\n", i, v)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d samples to %s\n", len(res.Samples), path)
}

func runTable1(samples int, seed uint64, workers int) {
	fmt.Printf("Running Table 1 with %d samples per configuration (seed %d)...\n\n", samples, seed)
	out, rows, err := bench.Table1(samples, seed, workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
	fmt.Println("Side by side with the published Table 1 (ns):")
	fmt.Println(bench.CompareWithPaper(rows))
}

// runDegrade renders the degradation campaign with and without the mode
// ladder.
func runDegrade(seed uint64) {
	rows, err := bench.AblationDegrade(seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench.FormatDegrade(rows))
}

// runPredict renders the execution-drift campaign under the reactive and
// the forecasting guard.
func runPredict(seed uint64) {
	rows, err := bench.AblationPredict(seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench.FormatPredict(rows))
}

// runFaults renders Ablation E: the standard fault campaign with the
// contract guard enforcing versus absent.
func runFaults(seed uint64) {
	rows, err := bench.AblationFaults(seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench.FormatFaults(rows))
}

func runHistograms(samples int, seed uint64) {
	if samples > 20000 {
		samples = 20000 // histograms do not need the full run
	}
	for _, cfg := range []workload.LatencyConfig{
		{Hybrid: true, Mode: rtos.LightLoad, Samples: samples, Seed: seed},
		{Hybrid: true, Mode: rtos.StressLoad, Samples: samples, Seed: seed},
	} {
		out, err := bench.Histogram(cfg, 40)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
}

func runAblations(seed uint64) {
	fmt.Println("Running ablations...")
	a, err := bench.AblationIntraComm(seed, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench.FormatIntraComm(a))

	b, err := bench.AblationAdmission(seed, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench.FormatAdmission(b))

	c, err := bench.AblationResolvers()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench.FormatResolvers(c))

	d, err := bench.AblationSchedPolicy(seed, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bench.FormatSchedPolicy(d))
}

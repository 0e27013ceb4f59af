// Package bench is the experiment harness: every table and figure of the
// paper's evaluation, plus the ablations DESIGN.md calls out, expressed
// as plain functions shared by `go test -bench` (bench_test.go) and the
// cmd/latbench tool. Each function returns printable rows so EXPERIMENTS.md
// can be regenerated mechanically.
package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hrc"
	"repro/internal/metrics"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
	"repro/internal/workload"
)

// Table1 runs the four latency configurations of the paper's Table 1,
// each against its own seeded System, across up to `workers` goroutines
// (workers <= 0: one per logical CPU), and renders them in the paper's
// layout and order. Output is identical for any worker count.
func Table1(samples int, seed uint64, workers int) (string, []metrics.Row, error) {
	configs := workload.Table1Configs(samples, seed)
	rows := make([]metrics.Row, len(configs))
	errs := forEachIndexed(len(configs), workers, func(i int) error {
		res, err := workload.RunLatency(configs[i])
		if err != nil {
			return fmt.Errorf("%s: %w", configs[i].Label(), err)
		}
		rows[i] = res.Row
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return "", nil, fmt.Errorf("bench: table1: %w", err)
		}
	}
	out := metrics.FormatTable("Table 1  Latency Test (light & stress) mode — ns", rows)
	return out, rows, nil
}

// forEachIndexed runs fn(0..n-1) across a pool of worker goroutines and
// blocks until all complete. Each index runs exactly once; errors are
// collected per index so the caller can report them deterministically.
func forEachIndexed(n, workers int, fn func(i int) error) []error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
		return errs
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errs
}

// PaperTable1 is the published Table 1, for side-by-side comparison.
var PaperTable1 = []metrics.Row{
	{Label: "HRC (light)", Average: -1334.9, AveDev: 3760.03, Min: -24125, Max: 21489},
	{Label: "Pure RTAI (light)", Average: -633.8, AveDev: 3682.82, Min: -25436, Max: 23798},
	{Label: "HRC (stress)", Average: -21083.74, AveDev: 338.89, Min: -23314, Max: -17956},
	{Label: "Pure RTAI (stress)", Average: -21184.52, AveDev: 385.41, Min: -25233, Max: -18834},
}

// CompareWithPaper renders measured rows against the published ones.
func CompareWithPaper(measured []metrics.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %14s | %14s %14s\n", "", "paper AVG", "paper AVEDEV", "ours AVG", "ours AVEDEV")
	for i, p := range PaperTable1 {
		if i >= len(measured) {
			break
		}
		m := measured[i]
		fmt.Fprintf(&b, "%-22s %14.2f %14.2f | %14.2f %14.2f\n",
			p.Label, p.Average, p.AveDev, m.Average, m.AveDev)
	}
	return b.String()
}

// IntraCommResult is one row of Ablation A (§3.2 design choice).
type IntraCommResult struct {
	Mode           string // "async" or "sync"
	Latency        metrics.Row
	CommandsServed uint64
}

// AblationIntraComm compares asynchronous command handling (the paper's
// design) against synchronous handling under a command storm: one
// set-property per two periods against a 1 kHz task.
func AblationIntraComm(seed uint64, commands int) ([]IntraCommResult, error) {
	run := func(syncMode bool) (IntraCommResult, error) {
		k := rtos.NewKernel(rtos.Config{Seed: seed}) // light-load noise
		c, err := hrc.New(hrc.Config{
			Kernel: k,
			Spec: rtos.TaskSpec{
				Name: "task", Type: rtos.Periodic, Priority: 1,
				Period: time.Millisecond, ExecTime: 30 * time.Microsecond,
			},
			Sync: syncMode,
		})
		if err != nil {
			return IntraCommResult{}, err
		}
		if err := c.Start(); err != nil {
			return IntraCommResult{}, err
		}
		if err := k.Run(50 * time.Millisecond); err != nil {
			return IntraCommResult{}, err
		}
		c.Task().ResetStats()
		for i := 0; i < commands; i++ {
			// Land the command just before a release so sync handling
			// collides with the RT dispatch.
			if err := k.Run(2*time.Millisecond - 3*time.Microsecond); err != nil {
				return IntraCommResult{}, err
			}
			_ = c.SetProperty("p", fmt.Sprint(i)) // drops under storm are part of the experiment
			if err := k.Run(3 * time.Microsecond); err != nil {
				return IntraCommResult{}, err
			}
		}
		mode := "async"
		if syncMode {
			mode = "sync"
		}
		row := c.Task().Stats().Latency
		row.Label = mode
		return IntraCommResult{
			Mode:           mode,
			Latency:        row,
			CommandsServed: c.Status().CommandsServed,
		}, nil
	}
	asyncRes, err := run(false)
	if err != nil {
		return nil, err
	}
	syncRes, err := run(true)
	if err != nil {
		return nil, err
	}
	return []IntraCommResult{asyncRes, syncRes}, nil
}

// AdmissionResult is one row of Ablation B (central admission on/off).
type AdmissionResult struct {
	Admission string // "enforced" or "disabled"
	Active    int
	Misses    uint64
	Skips     uint64
}

// AblationAdmission deploys an oversubscribed component set (total
// declared budget 1.4 on one CPU) with the DRCR's admission enforced and
// disabled, and counts the deadline misses that central enforcement
// prevents.
func AblationAdmission(seed uint64, runFor time.Duration) ([]AdmissionResult, error) {
	run := func(enforce bool) (AdmissionResult, error) {
		fw := osgi.NewFramework()
		k := rtos.NewKernel(rtos.Config{Seed: seed})
		// The enforced run uses a guard-banded budget ceiling (0.9), the
		// usual practice so declared budgets keep slack over release
		// jitter and execution variance.
		var internal policy.Resolver = policy.Utilization{Bound: 0.9}
		if !enforce {
			internal = policy.Static{AdmitAll: true, Label: "no-admission"}
		}
		d, err := core.New(fw, k, core.Options{Internal: internal})
		if err != nil {
			return AdmissionResult{}, err
		}
		defer d.Close()
		comps, err := workload.OversubscribedSet(14, 1.4)
		if err != nil {
			return AdmissionResult{}, err
		}
		for _, c := range comps {
			if err := d.Deploy(c); err != nil {
				return AdmissionResult{}, err
			}
		}
		if err := k.Run(runFor); err != nil {
			return AdmissionResult{}, err
		}
		res := AdmissionResult{Admission: "enforced"}
		if !enforce {
			res.Admission = "disabled"
		}
		for _, info := range d.Components() {
			if info.State == core.Active {
				res.Active++
			}
		}
		for _, t := range k.Tasks() {
			st := t.Stats()
			res.Misses += st.Misses
			res.Skips += st.Skips
		}
		return res, nil
	}
	on, err := run(true)
	if err != nil {
		return nil, err
	}
	off, err := run(false)
	if err != nil {
		return nil, err
	}
	return []AdmissionResult{on, off}, nil
}

// ResolverResult is one row of Ablation C (policy comparison).
type ResolverResult struct {
	Policy   string
	Admitted int
	Denied   int
}

// AblationResolvers admits the same tight task set under the three
// built-in policies. The set totals density 1.0 with deliberately
// rate-inverted priorities, so EDF admits everything, utilization admits
// everything, and RMA stops earlier — the crossover DESIGN.md promises.
func AblationResolvers() ([]ResolverResult, error) {
	mk := func(name string, prio int, usage float64, period time.Duration) policy.Contract {
		return policy.Contract{Name: name, CPU: 0, Priority: prio, CPUUsage: usage, Period: period}
	}
	// Rate-inverted: the long task has the top priority.
	set := []policy.Contract{
		mk("t1", 1, 0.50, 10*time.Millisecond),
		mk("t2", 2, 0.25, 4*time.Millisecond),
		mk("t3", 3, 0.25, 6*time.Millisecond),
	}
	resolvers := []policy.Resolver{policy.Utilization{}, policy.RMA{}, policy.EDF{}}
	out := make([]ResolverResult, 0, len(resolvers))
	for _, r := range resolvers {
		var admitted []policy.Contract
		res := ResolverResult{Policy: r.Name()}
		for _, c := range set {
			if r.Admit(policy.NewView(1, admitted), c).Admit {
				admitted = append(admitted, c)
				res.Admitted++
			} else {
				res.Denied++
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatIntraComm renders Ablation A.
func FormatIntraComm(rows []IntraCommResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A — intra-component command handling (latency ns under command storm)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %10s %10s %10s\n", "mode", "AVERAGE", "AVEDEV", "MIN", "MAX", "served")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12.2f %12.2f %10d %10d %10d\n",
			r.Mode, r.Latency.Average, r.Latency.AveDev, r.Latency.Min, r.Latency.Max, r.CommandsServed)
	}
	return b.String()
}

// FormatAdmission renders Ablation B.
func FormatAdmission(rows []AdmissionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation B — central admission control (oversubscribed set, budget 1.4)\n")
	fmt.Fprintf(&b, "%-10s %8s %10s %10s\n", "admission", "active", "misses", "skips")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d %10d %10d\n", r.Admission, r.Active, r.Misses, r.Skips)
	}
	return b.String()
}

// FormatResolvers renders Ablation C.
func FormatResolvers(rows []ResolverResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation C — resolving policies on a density-1.0, rate-inverted set\n")
	fmt.Fprintf(&b, "%-12s %9s %7s\n", "policy", "admitted", "denied")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9d %7d\n", r.Policy, r.Admitted, r.Denied)
	}
	return b.String()
}

// Histogram renders the latency distribution of one configuration, the
// figure-style view of Table 1's underlying data.
func Histogram(cfg workload.LatencyConfig, bins int) (string, error) {
	res, err := workload.RunLatency(cfg)
	if err != nil {
		return "", err
	}
	h, err := metrics.NewHistogram(-30000, 30000, bins)
	if err != nil {
		return "", err
	}
	for _, s := range res.Samples {
		h.Observe(s)
	}
	return fmt.Sprintf("%s latency distribution (ns)\n%s", cfg.Label(), h.Render(60)), nil
}

// Package policy implements the constraint-resolving services of the
// paper's DRCR: the internal admission policy plus the "customized
// resolving service" extension point that applications plug in through
// the service registry to fit their context (§1, §2.2, §4.3).
//
// A resolving service answers one question: given the real-time contracts
// already admitted on this system, may this candidate also be admitted
// without impairing anyone's contract? Several classic answers are
// provided: declared-budget utilization, rate-monotonic response-time
// analysis, and the EDF density bound.
package policy

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Contract is the real-time contract a component declares in its
// descriptor, reduced to what admission analysis needs.
type Contract struct {
	// Name identifies the component.
	Name string
	// CPU is the processor the task is pinned to.
	CPU int
	// Priority orders preemption; lower is more urgent.
	Priority int
	// CPUUsage is the declared CPU budget fraction (descriptor cpuusage).
	CPUUsage float64
	// Period is the release period; 0 for aperiodic components.
	Period time.Duration
	// Importance ranks the component for adaptation decisions (higher =
	// more important; the descriptor's optional importance attribute).
	Importance int
	// Budget, when non-nil, declares the CPU budget as a distribution
	// instead of the CPUUsage constant (descriptor <budget dist=...>).
	// CPUUsage stays the declared nominal fraction — it is what the load
	// accumulators track; the distribution refines it at admission time.
	Budget *Dist
	// MetP is the declared deadline-met probability for Budget
	// (descriptor <budget p=...>); 0 means DefaultMetP.
	MetP float64
}

// Cost returns the per-period execution budget implied by the declared
// CPU usage (C = U·T). Zero for aperiodic contracts.
func (c Contract) Cost() time.Duration {
	if c.Period <= 0 {
		return 0
	}
	return time.Duration(c.CPUUsage * float64(c.Period))
}

// View is the global system picture a resolving service reasons over: the
// DRCR's accurate global view of promised contracts (§2.2). Contracts are
// filed per processor, each processor's list in name order. A view is
// immutable once built: successive snapshots of one producer share the
// lists of processors whose admitted set did not change between them.
type View struct {
	NumCPUs int
	// Epoch counts admitted-set membership changes at the view's producer.
	// Two views with equal epochs from the same producer describe the same
	// admitted set, so consumers may reuse decisions derived from one.
	Epoch uint64
	// CPULoad, when non-nil, is the summed declared budget per processor,
	// maintained incrementally by the view's producer. Producers that do
	// not track it leave it nil and Load sums the processor's list.
	CPULoad []float64
	// Stochastic is set when the admitted set may contain
	// distribution-valued budgets. When false and the candidate carries
	// none, Utilization takes the constant-budget fast path.
	Stochastic bool

	cpus [][]Contract
}

// NewView files a flat contract list per processor, in name order. The
// table grows past numCPUs to hold any contract pinned beyond it;
// contracts pinned to a negative CPU are dropped. Stochastic is set when
// any contract declares a distribution budget.
func NewView(numCPUs int, contracts []Contract) View {
	sorted := append([]Contract(nil), contracts...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	cpus := make([][]Contract, numCPUs)
	v := View{NumCPUs: numCPUs}
	for _, c := range sorted {
		if c.CPU < 0 {
			continue
		}
		for c.CPU >= len(cpus) {
			cpus = append(cpus, nil)
		}
		cpus[c.CPU] = append(cpus[c.CPU], c)
		if c.Budget != nil {
			v.Stochastic = true
		}
	}
	v.cpus = cpus
	return v
}

// NewViewPerCPU builds a view over per-processor contract lists, each
// already in name order. The view takes ownership: the caller must never
// modify a list it passed, which is what lets later views share it.
func NewViewPerCPU(numCPUs int, perCPU [][]Contract) View {
	return View{NumCPUs: numCPUs, cpus: perCPU}
}

// OnCPU returns the admitted contracts pinned to the given processor, in
// name order. The slice is capped at its length, so appending to it
// copies instead of writing into storage other views share.
func (v View) OnCPU(cpuID int) []Contract {
	if cpuID < 0 || cpuID >= len(v.cpus) {
		return nil
	}
	s := v.cpus[cpuID]
	return s[:len(s):len(s)]
}

// Load returns the summed declared budget on the given processor, from
// the producer's accumulator when present, else summed in name order.
func (v View) Load(cpuID int) float64 {
	if v.CPULoad != nil && cpuID >= 0 && cpuID < len(v.CPULoad) {
		return v.CPULoad[cpuID]
	}
	var sum float64
	for _, c := range v.OnCPU(cpuID) {
		sum += c.CPUUsage
	}
	return sum
}

// Len returns the number of admitted contracts.
func (v View) Len() int {
	n := 0
	for _, s := range v.cpus {
		n += len(s)
	}
	return n
}

// All returns every admitted contract in name order, as a fresh slice.
func (v View) All() []Contract {
	out := make([]Contract, 0, v.Len())
	for _, s := range v.cpus {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Decision is a resolving service's verdict.
type Decision struct {
	Admit  bool
	Reason string
	// Verdict carries the Monte-Carlo admission verdict verbatim when a
	// stochastic budget decided the admission; aggregators (Chain) rewrite
	// Reason but must pass Verdict through so the admit span and the plan
	// compiler render the identical string.
	Verdict string
}

func admit(format string, args ...any) Decision {
	return Decision{Admit: true, Reason: fmt.Sprintf(format, args...)}
}

func deny(format string, args ...any) Decision {
	return Decision{Admit: false, Reason: fmt.Sprintf(format, args...)}
}

// Resolver is the resolving-service contract. Implementations must be
// stateless with respect to a single Admit call so DRCR can consult them
// speculatively.
type Resolver interface {
	// Name identifies the policy in logs and service properties.
	Name() string
	// Admit decides whether cand fits alongside the view's contracts.
	Admit(view View, cand Contract) Decision
}

// CPULocal is the optional capability of a Resolver whose verdict on a
// candidate is a pure function of the candidate and of the view's
// OnCPU(cand.CPU), Load(cand.CPU), NumCPUs and Stochastic: nothing about
// other processors, no state of its own. The DRCR then re-consults an
// admission waiter only when its own processor's admitted set changed
// (a Stochastic flip counts as a change on every processor). A chain
// with any member lacking the capability re-consults every waiter on
// every change.
type CPULocal interface {
	Resolver
	// CPULocal reports whether the guarantee holds for this value.
	CPULocal() bool
}

// IsCPULocal reports whether r declares the CPULocal guarantee.
func IsCPULocal(r Resolver) bool {
	l, ok := r.(CPULocal)
	return ok && l.CPULocal()
}

// ServiceInterface is the service-registry interface name under which
// customized resolving services are published for DRCR to discover.
const ServiceInterface = "drcom.ResolvingService"

// Utilization admits while the summed declared budgets on the candidate's
// CPU stay within Bound. This is the DRCR's internal default: it enforces
// exactly what components promised via cpuusage.
type Utilization struct {
	// Bound is the per-CPU budget ceiling; 0 means 1.0 (full CPU).
	Bound float64
}

// Name implements Resolver.
func (u Utilization) Name() string { return "utilization" }

// CPULocal implements CPULocal.
func (Utilization) CPULocal() bool { return true }

// Admit implements Resolver.
func (u Utilization) Admit(view View, cand Contract) Decision {
	bound := u.Bound
	if bound <= 0 {
		bound = 1.0
	}
	if cand.Budget != nil || view.Stochastic {
		if v, ok := MCVerdict(bound, view.Load(cand.CPU), view.OnCPU(cand.CPU), cand); ok {
			return v.Decision(cand.CPU, bound)
		}
	}
	sum := cand.CPUUsage + view.Load(cand.CPU)
	const eps = 1e-9
	if sum > bound+eps {
		return deny("cpu%d budget %.3f exceeds bound %.3f", cand.CPU, sum, bound)
	}
	return admit("cpu%d budget %.3f within bound %.3f", cand.CPU, sum, bound)
}

// RMA performs exact rate-monotonic response-time analysis over the
// periodic contracts on the candidate's CPU, using declared budgets as
// execution costs and declared priorities for preemption order. The
// candidate and every already-admitted task must meet their implicit
// deadlines (D = T).
type RMA struct{}

// Name implements Resolver.
func (RMA) Name() string { return "rma" }

// CPULocal implements CPULocal.
func (RMA) CPULocal() bool { return true }

// Admit implements Resolver.
func (RMA) Admit(view View, cand Contract) Decision {
	tasks := append(view.OnCPU(cand.CPU), cand)
	var periodic []Contract
	for _, c := range tasks {
		if c.Period > 0 {
			periodic = append(periodic, c)
		}
	}
	// Higher urgency first (lower priority number, then shorter period).
	sort.Slice(periodic, func(i, j int) bool {
		if periodic[i].Priority != periodic[j].Priority {
			return periodic[i].Priority < periodic[j].Priority
		}
		return periodic[i].Period < periodic[j].Period
	})
	for i, c := range periodic {
		r, ok := responseTime(c, periodic[:i])
		if !ok || r > c.Period {
			return deny("task %s response %v exceeds period %v", c.Name, r, c.Period)
		}
	}
	return admit("all %d periodic tasks schedulable on cpu%d", len(periodic), cand.CPU)
}

// responseTime iterates R = C + Σ ceil(R/Tj)·Cj over the strictly
// higher-priority set hp.
func responseTime(c Contract, hp []Contract) (time.Duration, bool) {
	cost := c.Cost()
	if cost <= 0 {
		return 0, true
	}
	r := cost
	for iter := 0; iter < 1000; iter++ {
		next := cost
		for _, h := range hp {
			hc := h.Cost()
			if hc <= 0 || h.Period <= 0 {
				continue
			}
			n := time.Duration(math.Ceil(float64(r) / float64(h.Period)))
			next += n * hc
		}
		if next == r {
			return r, true
		}
		if next > c.Period*64 { // diverging: unschedulable
			return next, false
		}
		r = next
	}
	return r, false
}

// EDF admits while total density on the candidate's CPU stays at or below
// one — the exact bound for earliest-deadline-first with implicit
// deadlines, included as an alternative policy the framework can be
// extended with (§1).
type EDF struct{}

// Name implements Resolver.
func (EDF) Name() string { return "edf" }

// CPULocal implements CPULocal.
func (EDF) CPULocal() bool { return true }

// Admit implements Resolver.
func (EDF) Admit(view View, cand Contract) Decision {
	sum := cand.CPUUsage + view.Load(cand.CPU)
	const eps = 1e-9
	if sum > 1+eps {
		return deny("cpu%d density %.3f exceeds 1", cand.CPU, sum)
	}
	return admit("cpu%d density %.3f ≤ 1", cand.CPU, sum)
}

// Chain consults resolvers in order; everyone must admit, mirroring the
// DRCR consulting its internal service and then every customized service
// (§4.3: "when both services return positive results").
type Chain []Resolver

// Name implements Resolver.
func (ch Chain) Name() string {
	names := make([]string, len(ch))
	for i, r := range ch {
		names[i] = r.Name()
	}
	return "chain(" + strings.Join(names, ",") + ")"
}

// CPULocal implements CPULocal: a chain is CPU-local iff every member is.
func (ch Chain) CPULocal() bool {
	for _, r := range ch {
		if !IsCPULocal(r) {
			return false
		}
	}
	return true
}

// Admit implements Resolver.
func (ch Chain) Admit(view View, cand Contract) Decision {
	verdict := ""
	for _, r := range ch {
		d := r.Admit(view, cand)
		if !d.Admit {
			return Decision{Reason: r.Name() + ": " + d.Reason}
		}
		if d.Verdict != "" {
			verdict = d.Verdict
		}
	}
	out := admit("all %d resolvers admitted %s", len(ch), cand.Name)
	out.Verdict = verdict
	return out
}

// Static always answers the same verdict; the paper's simulated
// customized service is Static{Admit: true}.
type Static struct {
	AdmitAll bool
	Label    string
}

// Name implements Resolver.
func (s Static) Name() string {
	if s.Label != "" {
		return s.Label
	}
	if s.AdmitAll {
		return "always-admit"
	}
	return "always-deny"
}

// CPULocal implements CPULocal: the verdict reads nothing at all.
func (Static) CPULocal() bool { return true }

// Admit implements Resolver.
func (s Static) Admit(View, Contract) Decision {
	if s.AdmitAll {
		return admit("static admit")
	}
	return deny("static deny")
}

// Func adapts a plain function to Resolver, for application-specific
// customized resolving services.
type Func struct {
	Label string
	F     func(view View, cand Contract) Decision
}

// Name implements Resolver.
func (f Func) Name() string { return f.Label }

// Admit implements Resolver.
func (f Func) Admit(view View, cand Contract) Decision { return f.F(view, cand) }

// Interface-compliance checks.
var (
	_ Resolver = Utilization{}
	_ Resolver = RMA{}
	_ Resolver = EDF{}
	_ Resolver = Chain(nil)
	_ Resolver = Static{}
	_ Resolver = Func{}

	_ CPULocal = Utilization{}
	_ CPULocal = RMA{}
	_ CPULocal = EDF{}
	_ CPULocal = Chain(nil)
	_ CPULocal = Static{}
)

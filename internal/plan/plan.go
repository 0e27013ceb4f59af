// Package plan compiles a bundle's parsed component descriptors — plus
// a snapshot of the DRCR's current admitted view — into a pre-validated
// composition plan: typed, versioned port contracts checked at compile
// time, a flat wiring table (provider→consumer edges resolved per mode
// ladder), the activation schedule the worklist engine's cursor will
// follow, and precomputed admission deltas (per-CPU budget sums).
//
// A plan is a check and a preview, never something the runtime applies.
// System.DeployBundle compiles one to reject typed port conflicts before
// anything is installed, the cluster leader compiles one for the same
// check before shipping an evacuation batch, and the console's plan and
// admit commands render one. The deploy itself always takes the one
// deploy path (install every descriptor, then one worklist drain); the
// core tests hold the preview to what that path actually does.
//
// Compilation rejects impossible compositions early — reject-at-compile
// beats deny-at-runtime. A rejection is raised only for a *typed*
// conflict: some provider speaks the consumer's topic at a compatible
// size but every such candidate fails the version-range or structural
// datatype check, so the inport can never bind while those are the only
// speakers. A merely absent provider is not an error (the component
// waits, exactly like declarative services), and untyped size mismatches
// keep their legacy wait semantics.
package plan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/descriptor"
	"repro/internal/policy"
	"repro/internal/rtos/ipc"
)

// admitEps mirrors the float tolerance of policy.Utilization.
const admitEps = 1e-9

// Env snapshots the runtime state a plan is compiled against.
type Env struct {
	// NumCPUs is the kernel's simulated CPU count.
	NumCPUs int
	// Bound is the internal resolver's utilization bound (1.0 default).
	Bound float64
	// View is the current admitted view: per-CPU name-sorted contracts
	// plus the per-CPU declared-budget accumulators.
	View policy.View
	// Providers lists every outport admitted outside the bundle — local
	// components and remote provisions — that could satisfy a bundle
	// inport.
	Providers []ExtProvider
}

// ExtProvider is one outport admitted outside the bundle.
type ExtProvider struct {
	Origin string // component name, or component@node for remote entries
	Remote bool
	Port   descriptor.Port
}

// Edge is one row of the flat wiring table: a consumer inport and the
// provider the runtime would bind it to (or "" when unbound).
type Edge struct {
	Consumer string
	Inport   string
	Provider string // plan member name or external origin; "" if unbound
	External bool
	// Modes lists the consumer's service modes that require this inport
	// (a mode's drops list exempts it).
	Modes []string
}

// CPUDelta is the admission delta on one CPU for a uniform mode rung.
type CPUDelta struct {
	CPU           int
	Before, After float64
	Delta         float64
}

// Leftover is a plan member that installs but cannot activate (no
// service mode has all its required inports satisfiable).
type Leftover struct {
	Name string
	// Missing is mode 0's first unsatisfied inport once the whole
	// schedule has run — the reason string the deploy path leaves.
	Missing string
	// CauseIdx is the schedule index of the provider whose activation
	// seeds the component's pending span cause (-1: none).
	CauseIdx int
}

// Plan is a compiled, pre-validated composition plan.
type Plan struct {
	// Key is the descriptor-set digest the plan cache is keyed by.
	Key string
	// Components in install (manifest resource) order.
	Components []*descriptor.Component
	// Schedule is the activation order: exactly the order the worklist
	// engine's cursor admits the members at mode 0.
	Schedule []string
	// CauseIdx has one entry per Schedule entry: the schedule index of
	// the member whose activation span becomes this member's transition
	// cause (-1: no internal cause; the span chain starts fresh).
	CauseIdx []int
	// Leftovers are installed members that stay Unsatisfied.
	Leftovers []Leftover
	// Edges is the wiring table, sorted by consumer then inport.
	Edges []Edge
	// Deltas is the per-CPU admission delta of activating the schedule
	// at mode 0 against the compile-time view.
	Deltas []CPUDelta
	// RungDeltas[r] is the per-CPU budget sum the schedule would claim
	// with every member clamped to mode rung r (members with fewer
	// declared modes stay at their cheapest) — the precomputed admission
	// deltas per mode-ladder rung.
	RungDeltas [][]float64
	// Admissions records the Monte-Carlo verdict of every stochastic
	// schedule step (members with distribution-valued budgets, or
	// constant members joining a CPU that already carries one). Verdicts
	// are byte-identical to the runtime's: both sides call
	// policy.MCVerdict over the same composition.
	Admissions []AdmitNote
	// ExtFP fingerprints which (member, inport) pairs were satisfiable
	// by providers outside the bundle at compile time. A cached plan is
	// reused only while the live providers still produce this
	// fingerprint; a mismatch forces recompilation.
	ExtFP string
	// Fallback is non-empty when the schedule does not tell the whole
	// outcome of the deploy (a member feasible only in a degraded mode,
	// an admission denial, a batch that cannot install as a whole); it
	// says why, and the schedule past that point is not a prediction.
	Fallback string
}

// AdmitNote is one compile-time Monte-Carlo admission verdict.
type AdmitNote struct {
	Name    string
	Verdict string
}

// PortIncompatibility is one typed port conflict: the exact port pair
// and why the provider cannot satisfy the consumer.
type PortIncompatibility struct {
	Provider     string // component name or external origin
	ProviderPort string
	Consumer     string
	ConsumerPort string
	Kind         string // "version" or "structure"
	Reason       string
}

func (e *PortIncompatibility) Error() string {
	return fmt.Sprintf("plan: %s.%s cannot satisfy %s.%s: %s (%s mismatch)",
		e.Provider, e.ProviderPort, e.Consumer, e.ConsumerPort, e.Reason, e.Kind)
}

// RejectError aggregates every typed conflict found at compile time.
type RejectError struct {
	Conflicts []*PortIncompatibility
}

func (e *RejectError) Error() string {
	if len(e.Conflicts) == 1 {
		return e.Conflicts[0].Error()
	}
	msgs := make([]string, len(e.Conflicts))
	for i, c := range e.Conflicts {
		msgs[i] = c.Error()
	}
	return fmt.Sprintf("plan: %d typed port conflicts: %s", len(e.Conflicts), strings.Join(msgs, "; "))
}

// renderDigests memoizes each descriptor's canonical-form digest by
// pointer identity. Descriptors are immutable once parsed, so the
// render — by far the most expensive part of keying — need only happen
// once per descriptor lifetime instead of on every deploy. Bounded so
// a pathological churn of fresh parses cannot grow it forever.
var renderDigests sync.Map // *descriptor.Component → [sha256.Size]byte

var renderDigestCount atomic.Int64

const renderDigestBound = 1 << 14

func contentDigest(d *descriptor.Component) [sha256.Size]byte {
	if v, ok := renderDigests.Load(d); ok {
		return v.([sha256.Size]byte)
	}
	sum := sha256.Sum256([]byte(d.Render()))
	if renderDigestCount.Add(1) > renderDigestBound {
		// Reset the memo once it hits the bound. Range+Delete instead of
		// Clear keeps the module at go1.22; entries stored concurrently
		// during the sweep may survive it, which only delays the next reset.
		renderDigests.Range(func(k, _ any) bool {
			renderDigests.Delete(k)
			return true
		})
		renderDigestCount.Store(1)
	}
	renderDigests.Store(d, sum)
	return sum
}

// KeyOf digests a descriptor set in install order. The canonical
// rendered form is hashed, so a re-parsed copy of the same descriptors
// hits the same cache slot.
func KeyOf(descs []*descriptor.Component) string {
	h := sha256.New()
	for _, d := range descs {
		sum := contentDigest(d)
		h.Write(sum[:])
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// portKey mirrors the runtime's topic identity: two ports with equal
// keys speak the same topic (§2.3) and differ at most in size and typed
// annotations.
type portKey struct {
	name  string
	iface descriptor.PortInterface
	typ   ipc.ElemType
}

func keyOf(p descriptor.Port) portKey { return portKey{p.Name, p.Interface, p.Type} }

// member is per-component compile state.
type member struct {
	desc    *descriptor.Component
	enabled bool
	// extSat[in.Name]: the inport is satisfiable by an external provider.
	extSat map[string]bool
}

// Compile builds a plan. A typed port conflict returns (*RejectError);
// every other obstacle compiles successfully with Fallback set, so
// callers can still render the plan.
func Compile(descs []*descriptor.Component, env Env) (*Plan, error) {
	p := &Plan{Key: KeyOf(descs), Components: descs}
	if env.Bound <= 0 {
		env.Bound = 1.0
	}

	members := map[string]*member{}
	var names []string
	for _, d := range descs {
		if _, dup := members[d.Name]; dup {
			p.Fallback = fmt.Sprintf("duplicate component name %q", d.Name)
			return p, nil
		}
		members[d.Name] = &member{desc: d, enabled: d.Enabled, extSat: map[string]bool{}}
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, d := range descs {
		if cpu := d.CPU(); cpu < 0 || cpu >= env.NumCPUs {
			p.Fallback = fmt.Sprintf("component %q pinned to cpu%d but kernel has %d CPUs", d.Name, cpu, env.NumCPUs)
			return p, nil
		}
	}

	// Internal provider index: topic → enabled members declaring an
	// outport on it, name-sorted (the runtime's provider choice order).
	provIdx := map[portKey][]string{}
	for _, name := range names {
		m := members[name]
		if !m.enabled {
			continue
		}
		for _, out := range m.desc.OutPorts {
			k := keyOf(out)
			provIdx[k] = append(provIdx[k], name)
		}
	}

	// External satisfiability per (member, inport), the compatibility
	// fingerprint, and the typed-conflict check.
	extLocal := map[portKey][]ExtProvider{}
	extRemote := map[portKey][]ExtProvider{}
	for _, ep := range env.Providers {
		k := keyOf(ep.Port)
		if ep.Remote {
			extRemote[k] = append(extRemote[k], ep)
		} else {
			extLocal[k] = append(extLocal[k], ep)
		}
	}
	for _, eps := range extLocal {
		sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
	}
	for _, eps := range extRemote {
		sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
	}

	var reject RejectError
	var fp strings.Builder
	for _, name := range names {
		m := members[name]
		for _, in := range m.desc.InPorts {
			k := keyOf(in)
			sat := false
			for _, ep := range extLocal[k] {
				if ep.Origin != name && ep.Port.CanSatisfy(in) {
					sat = true
					break
				}
			}
			if !sat {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						sat = true
						break
					}
				}
			}
			m.extSat[in.Name] = sat
			fmt.Fprintf(&fp, "%s/%s=%v;", name, in.Name, sat)

			// Typed-conflict scan: candidates that match the topic at a
			// compatible size but all fail the typed layer.
			if sat || !m.enabled {
				continue
			}
			var firstTyped *PortIncompatibility
			compatible := false
			consider := func(origin string, out descriptor.Port) {
				if compatible || origin == name {
					return
				}
				if out.Direction != descriptor.Out || out.Size < in.Size {
					return // untyped size mismatches keep wait semantics
				}
				if why := out.ExplainTypedMismatch(in); why != "" {
					if firstTyped == nil {
						kind := "structure"
						if strings.Contains(why, "version") {
							kind = "version"
						}
						firstTyped = &PortIncompatibility{
							Provider: origin, ProviderPort: out.Name,
							Consumer: name, ConsumerPort: in.Name,
							Kind: kind, Reason: why,
						}
					}
					return
				}
				compatible = true
			}
			for _, pn := range provIdx[k] {
				if pn == name {
					continue
				}
				pm := members[pn]
				for _, out := range pm.desc.OutPorts {
					if keyOf(out) == k {
						consider(pn, out)
					}
				}
			}
			for _, ep := range extLocal[k] {
				consider(ep.Origin, ep.Port)
			}
			for _, ep := range extRemote[k] {
				consider(ep.Origin, ep.Port)
			}
			if !compatible && firstTyped != nil {
				reject.Conflicts = append(reject.Conflicts, firstTyped)
			}
		}
	}
	sumFP := sha256.Sum256([]byte(fp.String()))
	p.ExtFP = hex.EncodeToString(sumFP[:])
	if len(reject.Conflicts) > 0 {
		return nil, &reject
	}

	p.compileSchedule(members, names, provIdx, extLocal, extRemote)
	if p.Fallback == "" {
		p.compileAdmission(members, env)
	}
	p.compileEdges(members, names, extLocal, extRemote)
	return p, nil
}

// satisfiedBy reports whether inport in of member name is satisfied
// given the currently-activated member set.
func satisfiedBy(name string, in descriptor.Port, members map[string]*member,
	provIdx map[portKey][]string, active map[string]bool) bool {
	if members[name].extSat[in.Name] {
		return true
	}
	for _, pn := range provIdx[keyOf(in)] {
		if pn == name || !active[pn] {
			continue
		}
		for _, out := range members[pn].desc.OutPorts {
			if out.CanSatisfy(in) {
				return true
			}
		}
	}
	return false
}

// mode0Missing returns the first mode-0 inport of name without a
// provider ("" when mode 0 is feasible), mirroring
// feasibleModesLocked's missing-name rule.
func mode0Missing(name string, members map[string]*member,
	provIdx map[portKey][]string, active map[string]bool) string {
	for _, in := range members[name].desc.InPorts {
		if !satisfiedBy(name, in, members, provIdx, active) {
			return in.Name
		}
	}
	return ""
}

// compileSchedule reproduces the worklist engine's activation order: an
// initial name-sorted round over every enabled member, a cursor that
// lets a consumer dirtied ahead of it join the current round while one
// behind it waits for the next, and cause seeding along the topic
// edges. Any member feasible only in a degraded mode (or denied — see
// compileAdmission) sets Fallback: downgrade-before-deny runs at deploy
// time and the schedule cannot predict its span chain.
func (p *Plan) compileSchedule(members map[string]*member, names []string,
	provIdx map[portKey][]string,
	extLocal, extRemote map[portKey][]ExtProvider) {

	// Reverse edges: topic → enabled members with an inport on it,
	// name-sorted (the runtime's consIndex restricted to the bundle).
	consIdx := map[portKey][]string{}
	for _, name := range names {
		m := members[name]
		if !m.enabled {
			continue
		}
		for _, in := range m.desc.InPorts {
			k := keyOf(in)
			consIdx[k] = append(consIdx[k], name)
		}
	}

	active := map[string]bool{}
	scheduleIdx := map[string]int{}
	cause := map[string]int{} // member → schedule index of its span cause
	var round, next []string
	nextMember := map[string]bool{}
	for _, name := range names {
		if members[name].enabled {
			round = append(round, name)
		}
	}

	enqueueNext := func(name string) {
		if nextMember[name] {
			return
		}
		nextMember[name] = true
		i := sort.SearchStrings(next, name)
		next = append(next, "")
		copy(next[i+1:], next[i:])
		next[i] = name
	}
	insertTail := func(round []string, i int, name string) []string {
		tail := round[i+1:]
		j := sort.SearchStrings(tail, name)
		if j < len(tail) && tail[j] == name {
			return round
		}
		pos := i + 1 + j
		round = append(round, "")
		copy(round[pos+1:], round[pos:])
		round[pos] = name
		return round
	}

	for len(round) > 0 {
		for i := 0; i < len(round); i++ {
			name := round[i]
			if active[name] {
				continue
			}
			if mode0Missing(name, members, provIdx, active) != "" {
				continue // stays waiting; a later cascade may re-visit it
			}
			idx := len(p.Schedule)
			active[name] = true
			scheduleIdx[name] = idx
			p.Schedule = append(p.Schedule, name)
			ci := -1
			if c, ok := cause[name]; ok {
				ci = c
			}
			p.CauseIdx = append(p.CauseIdx, ci)
			// Cascade to the new provider's waiting consumers.
			for _, out := range members[name].desc.OutPorts {
				for _, cn := range consIdx[keyOf(out)] {
					if cn == name || active[cn] {
						continue
					}
					if _, seeded := cause[cn]; !seeded {
						cause[cn] = idx
					}
					if cn > name {
						round = insertTail(round, i, cn)
					} else {
						enqueueNext(cn)
					}
				}
			}
		}
		round, next = next, round[:0]
		for k := range nextMember {
			delete(nextMember, k)
		}
	}

	for _, name := range names {
		m := members[name]
		if !m.enabled || active[name] {
			continue
		}
		// Not schedulable at mode 0. If a degraded mode is feasible the
		// deploy downgrades it (downgrade-before-deny emits its own span
		// chain); a member with no feasible mode at all just stays
		// Unsatisfied, which the plan lists as a leftover.
		for mi := 1; mi < m.desc.NumModes(); mi++ {
			feasible := true
			for _, in := range m.desc.InPorts {
				if !m.desc.RequiresInport(mi, in.Name) {
					continue
				}
				if !satisfiedBy(name, in, members, provIdx, active) {
					feasible = false
					break
				}
			}
			if feasible {
				p.Fallback = fmt.Sprintf("component %q is feasible only in degraded mode %q", name, m.desc.ModeName(mi))
				return
			}
		}
		ci := -1
		if c, ok := cause[name]; ok {
			ci = c
		}
		p.Leftovers = append(p.Leftovers, Leftover{
			Name:     name,
			Missing:  mode0Missing(name, members, provIdx, active),
			CauseIdx: ci,
		})
	}
}

// compileAdmission dry-runs the internal utilization resolver over the
// schedule, reproducing the runtime's arithmetic exactly: the per-CPU
// accumulators are re-summed from scratch in admitted-name order after
// every activation (the DRCR's per-CPU load rule), so the partial sums —
// and therefore every admit/deny verdict — are bit-for-bit the ones the
// deploy path computes. A denial sets Fallback.
func (p *Plan) compileAdmission(members map[string]*member, env Env) {
	admitted := env.View.All()
	before := make([]float64, env.NumCPUs)
	load := make([]float64, env.NumCPUs)
	recompute := func() {
		for i := range load {
			load[i] = 0
		}
		for _, ct := range admitted {
			if ct.CPU >= 0 && ct.CPU < len(load) {
				load[ct.CPU] += ct.CPUUsage
			}
		}
	}
	recompute()
	copy(before, load)

	// Stochastic steps Monte-Carlo-sample the composed per-CPU load with
	// the shared policy sampler, so compile-time verdicts are
	// byte-identical to the runtime's. The flag tracks whether any
	// distribution-valued contract is in play (view or schedule prefix).
	stochastic := env.View.Stochastic
	for _, name := range p.Schedule {
		desc := members[name].desc
		cpu := desc.CPU()
		cand := policy.Contract{Name: name, CPU: cpu, CPUUsage: desc.CPUUsage,
			Budget: desc.Budget, MetP: desc.BudgetP}
		handled := false
		if stochastic || cand.Budget != nil {
			var onCPU []policy.Contract
			for _, ct := range admitted {
				if ct.CPU == cpu {
					onCPU = append(onCPU, ct)
				}
			}
			if v, ok := policy.MCVerdict(env.Bound, load[cpu], onCPU, cand); ok {
				dec := v.Decision(cpu, env.Bound)
				if cand.Budget != nil {
					// Only budget-declaring members get an admit span at
					// runtime; mirror that so notes and spans line up 1:1.
					p.Admissions = append(p.Admissions, AdmitNote{Name: name, Verdict: dec.Reason})
				}
				if !dec.Admit {
					p.Fallback = fmt.Sprintf("component %q would be denied at mode 0 (%s)", name, dec.Reason)
					return
				}
				handled = true
			}
		}
		if !handled {
			if sum := desc.CPUUsage + load[cpu]; sum > env.Bound+admitEps {
				p.Fallback = fmt.Sprintf("component %q would be denied at mode 0 (cpu%d budget %.3f exceeds bound %.3f)",
					name, cpu, sum, env.Bound)
				return
			}
		}
		if cand.Budget != nil {
			stochastic = true
		}
		i := sort.Search(len(admitted), func(i int) bool { return admitted[i].Name >= name })
		admitted = append(admitted, policy.Contract{})
		copy(admitted[i+1:], admitted[i:])
		admitted[i] = cand
		recompute()
	}
	for cpu := 0; cpu < env.NumCPUs; cpu++ {
		if load[cpu] != before[cpu] {
			p.Deltas = append(p.Deltas, CPUDelta{
				CPU: cpu, Before: before[cpu], After: load[cpu], Delta: load[cpu] - before[cpu],
			})
		}
	}

	// Per-rung budget sums: the schedule clamped to each uniform mode
	// ladder rung (members without that rung stay at their cheapest).
	maxModes := 1
	for _, name := range p.Schedule {
		if n := members[name].desc.NumModes(); n > maxModes {
			maxModes = n
		}
	}
	for r := 0; r < maxModes; r++ {
		sums := make([]float64, env.NumCPUs)
		for _, name := range p.Schedule {
			desc := members[name].desc
			rung := r
			if rung >= desc.NumModes() {
				rung = desc.NumModes() - 1
			}
			sums[desc.CPU()] += desc.ModeSpec(rung).CPUUsage
		}
		p.RungDeltas = append(p.RungDeltas, sums)
	}
}

// edgeCand is one outport a consumer inport could bind to.
type edgeCand struct {
	origin string
	port   descriptor.Port
	ext    bool
}

// compileEdges fills the wiring table: for every enabled member inport,
// the provider the runtime binds once the whole schedule is active
// — plan members and already-admitted local components in one
// name-sorted order, then remote provisions in origin order.
func (p *Plan) compileEdges(members map[string]*member, names []string,
	extLocal, extRemote map[portKey][]ExtProvider) {
	scheduled := map[string]bool{}
	for _, n := range p.Schedule {
		scheduled[n] = true
	}
	// Topic → scheduled members' outports on it, in name order.
	byKey := map[portKey][]edgeCand{}
	for _, name := range names {
		if !scheduled[name] {
			continue
		}
		for _, out := range members[name].desc.OutPorts {
			k := keyOf(out)
			byKey[k] = append(byKey[k], edgeCand{name, out, false})
		}
	}
	var cands []edgeCand
	for _, name := range names {
		m := members[name]
		if !m.enabled {
			continue
		}
		for _, in := range m.desc.InPorts {
			var modes []string
			for mi := 0; mi < m.desc.NumModes(); mi++ {
				if m.desc.RequiresInport(mi, in.Name) {
					modes = append(modes, m.desc.ModeName(mi))
				}
			}
			e := Edge{Consumer: name, Inport: in.Name, Modes: modes}
			k := keyOf(in)
			// Merge plan members and external local providers in name
			// order, mirroring the admitted-set scan.
			cands = cands[:0]
			for _, c := range byKey[k] {
				if c.origin != name {
					cands = append(cands, c)
				}
			}
			for _, ep := range extLocal[k] {
				if ep.Origin != name {
					cands = append(cands, edgeCand{ep.Origin, ep.Port, true})
				}
			}
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].origin < cands[j].origin })
			for _, c := range cands {
				if c.port.CanSatisfy(in) {
					e.Provider, e.External = c.origin, c.ext
					break
				}
			}
			if e.Provider == "" {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						e.Provider, e.External = ep.Origin, true
						break
					}
				}
			}
			p.Edges = append(p.Edges, e)
		}
	}
	sort.Slice(p.Edges, func(i, j int) bool {
		if p.Edges[i].Consumer != p.Edges[j].Consumer {
			return p.Edges[i].Consumer < p.Edges[j].Consumer
		}
		return p.Edges[i].Inport < p.Edges[j].Inport
	})
}

// Fingerprint recomputes the external-satisfiability fingerprint
// against a live provider set; a cache lookup compares it with the
// compile-time ExtFP and recompiles on mismatch.
func Fingerprint(descs []*descriptor.Component, providers []ExtProvider) string {
	extLocal := map[portKey][]ExtProvider{}
	extRemote := map[portKey][]ExtProvider{}
	for _, ep := range providers {
		k := keyOf(ep.Port)
		if ep.Remote {
			extRemote[k] = append(extRemote[k], ep)
		} else {
			extLocal[k] = append(extLocal[k], ep)
		}
	}
	names := make([]string, 0, len(descs))
	byName := map[string]*descriptor.Component{}
	for _, d := range descs {
		names = append(names, d.Name)
		byName[d.Name] = d
	}
	sort.Strings(names)
	var fp strings.Builder
	for _, name := range names {
		for _, in := range byName[name].InPorts {
			k := keyOf(in)
			sat := false
			for _, ep := range extLocal[k] {
				if ep.Origin != name && ep.Port.CanSatisfy(in) {
					sat = true
					break
				}
			}
			if !sat {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						sat = true
						break
					}
				}
			}
			fmt.Fprintf(&fp, "%s/%s=%v;", name, in.Name, sat)
		}
	}
	sum := sha256.Sum256([]byte(fp.String()))
	return hex.EncodeToString(sum[:])
}

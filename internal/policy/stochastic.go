// Stochastic contracts: distribution-valued CPU budgets and the
// Monte-Carlo admission test over the composed per-CPU load.
//
// The paper's admission control is binary — a declared budget either
// fits under the bound or the component is denied. Real execution times
// are distributions, not constants (Nandi, Monot & Oriol, "Stochastic
// Contracts for Runtime Checking of Component-based Real-time
// Systems"): a component may declare its budget as normal(µ,σ) together
// with a probability p, asking to be admitted iff the composed load on
// its CPU stays under the bound with probability ≥ p. The sampler is
// seeded from the participating contracts themselves, so the verdict is
// a pure function of the composition — byte-identical across engines
// and the plan compiler.
package policy

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// DistKind enumerates the supported budget distribution families.
type DistKind int

const (
	// Normal is a Gaussian budget: dist="normal(mu,sigma)".
	Normal DistKind = iota + 1
	// LogNormal is exp(N(mu,sigma)): dist="lognormal(mu,sigma)".
	LogNormal
	// Empirical is a weighted histogram: dist="empirical(v:w,v:w,...)".
	Empirical
)

// DefaultMetP is the deadline-met probability assumed when a
// distribution-valued budget omits the p attribute.
const DefaultMetP = 0.95

// Dist is a distribution-valued CPU budget. Samples are CPU fractions
// (same unit as Contract.CPUUsage), clamped to be non-negative.
type Dist struct {
	Kind DistKind
	// Mu, Sigma parameterise Normal (mean, stddev of the fraction) and
	// LogNormal (mean, stddev of the underlying normal).
	Mu, Sigma float64
	// Values/Weights are the Empirical support points and their
	// (positive, not necessarily normalised) weights, in declared order.
	Values  []float64
	Weights []float64
}

// ParseDist parses the descriptor dist grammar:
//
//	normal(mu,sigma) | lognormal(mu,sigma) | empirical(v:w,v:w,...)
//
// It returns a typed error for malformed strings; it never panics.
func ParseDist(s string) (*Dist, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("dist %q: want family(args)", s)
	}
	family := s[:open]
	args := s[open+1 : len(s)-1]
	switch family {
	case "normal", "lognormal":
		parts := strings.Split(args, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("dist %q: want %s(mu,sigma)", s, family)
		}
		mu, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("dist %q: bad mu: %v", s, err)
		}
		sigma, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("dist %q: bad sigma: %v", s, err)
		}
		if math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			return nil, fmt.Errorf("dist %q: parameters must be finite", s)
		}
		if sigma < 0 {
			return nil, fmt.Errorf("dist %q: sigma must be >= 0", s)
		}
		if family == "normal" && mu < 0 {
			return nil, fmt.Errorf("dist %q: mu must be >= 0", s)
		}
		kind := Normal
		if family == "lognormal" {
			kind = LogNormal
		}
		return &Dist{Kind: kind, Mu: mu, Sigma: sigma}, nil
	case "empirical":
		if strings.TrimSpace(args) == "" {
			return nil, fmt.Errorf("dist %q: empirical needs at least one v:w point", s)
		}
		parts := strings.Split(args, ",")
		d := &Dist{Kind: Empirical}
		for _, p := range parts {
			vw := strings.Split(p, ":")
			if len(vw) != 2 {
				return nil, fmt.Errorf("dist %q: point %q: want value:weight", s, p)
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(vw[0]), 64)
			if err != nil {
				return nil, fmt.Errorf("dist %q: bad value in %q: %v", s, p, err)
			}
			w, err := strconv.ParseFloat(strings.TrimSpace(vw[1]), 64)
			if err != nil {
				return nil, fmt.Errorf("dist %q: bad weight in %q: %v", s, p, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return nil, fmt.Errorf("dist %q: value %v must be finite and >= 0", s, v)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				return nil, fmt.Errorf("dist %q: weight %v must be finite and > 0", s, w)
			}
			d.Values = append(d.Values, v)
			d.Weights = append(d.Weights, w)
		}
		return d, nil
	default:
		return nil, fmt.Errorf("dist %q: unknown family %q (want normal, lognormal or empirical)", s, family)
	}
}

// String renders the canonical dist grammar; ParseDist(d.String()) is a
// fixed point (floats print with strconv 'g' shortest-round-trip form).
func (d *Dist) String() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch d.Kind {
	case Normal:
		return "normal(" + g(d.Mu) + "," + g(d.Sigma) + ")"
	case LogNormal:
		return "lognormal(" + g(d.Mu) + "," + g(d.Sigma) + ")"
	case Empirical:
		var b strings.Builder
		b.WriteString("empirical(")
		for i, v := range d.Values {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(g(v))
			b.WriteByte(':')
			b.WriteString(g(d.Weights[i]))
		}
		b.WriteByte(')')
		return b.String()
	default:
		return "invalid"
	}
}

// Sample draws one CPU fraction from the distribution, clamped to be
// non-negative.
func (d *Dist) Sample(r *sim.Rand) float64 {
	var v float64
	switch d.Kind {
	case Normal:
		v = d.Mu + d.Sigma*r.NormFloat64()
	case LogNormal:
		v = math.Exp(d.Mu + d.Sigma*r.NormFloat64())
	case Empirical:
		var wsum float64
		for _, w := range d.Weights {
			wsum += w
		}
		u := r.Float64() * wsum
		for i, w := range d.Weights {
			u -= w
			if u < 0 {
				v = d.Values[i]
				break
			}
			v = d.Values[i] // rounding: last point
		}
	}
	if v < 0 {
		return 0
	}
	return v
}

// MCTrials is the fixed Monte-Carlo trial count; part of the pinned
// verdict (changing it changes every stochastic admission digest).
const MCTrials = 512

// probEps absorbs the quantisation of p estimates to 1/MCTrials.
const probEps = 1e-12

// StochasticVerdict is the Monte-Carlo admission computation shared by
// the runtime resolvers and the plan compiler's admission deltas.
type StochasticVerdict struct {
	// P is the estimated probability that the composed load on the
	// candidate's CPU stays at or under the bound.
	P float64
	// Required is the strictest declared deadline-met probability among
	// the stochastic participants (candidate included).
	Required float64
	// Trials is the sample count behind P.
	Trials int
}

// Admitted reports whether the estimate clears the requirement.
func (v StochasticVerdict) Admitted() bool { return v.P+probEps >= v.Required }

// Decision renders the verdict in the resolvers' Decision form. The
// reason string enters pinned span streams, so the runtime engines and
// the plan compiler all use this one renderer.
func (v StochasticVerdict) Decision(cpu int, bound float64) Decision {
	if v.Admitted() {
		d := admit("cpu%d P(load≤%.3f)=%.3f meets p=%.3f (%d trials)",
			cpu, bound, v.P, v.Required, v.Trials)
		d.Verdict = d.Reason
		return d
	}
	return deny("cpu%d P(load≤%.3f)=%.3f below p=%.3f (%d trials)",
		cpu, bound, v.P, v.Required, v.Trials)
}

// MCVerdict Monte-Carlo-samples the composed load on the candidate's
// CPU: the constant budgets contribute their declared fractions, every
// distribution-valued budget is sampled per trial, and the verdict is
// the fraction of trials in which the total stays at or under bound.
// onCPU must be the admitted contracts on cand.CPU in name order with
// the candidate excluded; cpuLoad their summed declared budgets. The
// second return is false when no participant carries a distribution —
// callers then fall back to the constant-budget test. The sampler seed
// is derived from the participants alone, so the same composition
// yields the same verdict everywhere.
func MCVerdict(bound, cpuLoad float64, onCPU []Contract, cand Contract) (StochasticVerdict, bool) {
	var stoch []Contract
	for _, c := range onCPU {
		if c.Budget != nil {
			stoch = append(stoch, c)
		}
	}
	if cand.Budget == nil && len(stoch) == 0 {
		return StochasticVerdict{}, false
	}
	// The constant part of the composition: total declared load minus
	// the declared fractions the sampled draws replace.
	base := cpuLoad
	required := 0.0
	for _, s := range stoch {
		base -= s.CPUUsage
		if p := metP(s.MetP); p > required {
			required = p
		}
	}
	if cand.Budget != nil {
		if p := metP(cand.MetP); p > required {
			required = p
		}
	}
	r := sim.NewRand(mcSeed(bound, cand.CPU, stoch, cand))
	met := 0
	for t := 0; t < MCTrials; t++ {
		total := base
		for _, s := range stoch {
			total += s.Budget.Sample(r)
		}
		if cand.Budget != nil {
			total += cand.Budget.Sample(r)
		} else {
			total += cand.CPUUsage
		}
		if total <= bound+1e-9 {
			met++
		}
	}
	return StochasticVerdict{
		P:        float64(met) / float64(MCTrials),
		Required: required,
		Trials:   MCTrials,
	}, true
}

func metP(p float64) float64 {
	if p <= 0 || p >= 1 {
		return DefaultMetP
	}
	return p
}

// mcSeed folds the admission question into a 64-bit FNV-1a digest: the
// CPU, the bound, and every stochastic participant's identity. No clock,
// no map order — the seed is stable wherever the same composition is
// tested.
func mcSeed(bound float64, cpu int, stoch []Contract, cand Contract) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	mixU := func(u uint64) {
		for i := 0; i < 8; i++ {
			h ^= (u >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix("drcom.stochastic.admit")
	mixU(uint64(cpu))
	mixU(math.Float64bits(bound))
	one := func(c Contract) {
		mix(c.Name)
		mix("|")
		if c.Budget != nil {
			mix(c.Budget.String())
		}
		mixU(math.Float64bits(metP(c.MetP)))
	}
	for _, s := range stoch {
		one(s)
	}
	mix("cand|")
	one(cand)
	return h
}

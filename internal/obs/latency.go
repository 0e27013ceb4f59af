// Latency histograms: fixed-bucket log2 distributions for the DRCR's
// end-to-end reaction latencies, recorded with a zero-allocation path
// (an inline array of metrics.Log2Hist — no pointers, no maps). Wall
// latencies (resolve, deploy, plan apply) measure host nanoseconds of
// the management operation; propagation latencies (migration, cluster
// revocation) measure simulated nanoseconds between cause and effect.
// None of them enter any digest — wall times are machine-dependent by
// nature — so determinism pins are unaffected.

package obs

import (
	"encoding/json"
	"strconv"

	"repro/internal/metrics"
)

// LatencyKind names one tracked latency distribution.
type LatencyKind int

// Latency kinds. The enum order is the committed canonical export order
// (Snapshot and SummaryJSON list histograms in this order).
const (
	// LatResolve is the wall time of one resolve drain (runResolve).
	LatResolve LatencyKind = iota
	// LatDeploy is the wall time of one Deploy or DeployAll call.
	LatDeploy
	// LatPlanApply is the wall time of one compiled-plan fast-path apply.
	LatPlanApply
	// LatMigrate is the simulated end-to-end time of one migration:
	// from the leader's decision to the component admitted on the
	// destination node.
	LatMigrate
	// LatRevoke is the simulated propagation time of one cluster
	// revocation: from the leader's send to the destination applying it.
	LatRevoke

	latKinds // count sentinel
)

// latencyNames is the static name table, indexed by LatencyKind.
var latencyNames = [latKinds]string{
	LatResolve:   "resolve",
	LatDeploy:    "deploy",
	LatPlanApply: "plan-apply",
	LatMigrate:   "migrate-e2e",
	LatRevoke:    "revoke-propagation",
}

func (k LatencyKind) String() string {
	if k >= 0 && k < latKinds {
		return latencyNames[k]
	}
	return "LatencyKind(" + strconv.Itoa(int(k)) + ")"
}

// RecordLatency folds one sample (nanoseconds; wall or simulated per
// the kind's contract) into the kind's histogram. It never allocates —
// it runs inside resolve and deploy hot paths at every sampling level
// except Off.
func (p *Plane) RecordLatency(k LatencyKind, ns int64) {
	if !p.enabled() || k < 0 || k >= latKinds {
		return
	}
	p.latMu.Lock()
	p.lat[k].Observe(ns)
	p.latMu.Unlock()
}

// Latency returns a copy of one kind's histogram.
func (p *Plane) Latency(k LatencyKind) metrics.Log2Hist {
	if p == nil || k < 0 || k >= latKinds {
		return metrics.Log2Hist{}
	}
	p.latMu.Lock()
	defer p.latMu.Unlock()
	return p.lat[k]
}

// LatencyStat is the exported summary of one latency distribution.
// Quantiles are deterministic bucket upper bounds (metrics.Log2Hist).
type LatencyStat struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P95NS int64  `json:"p95_ns"`
	P99NS int64  `json:"p99_ns"`
	MaxNS int64  `json:"max_ns"`
}

// LatencyStats summarises every non-empty latency histogram in the
// committed canonical kind order.
func (p *Plane) LatencyStats() []LatencyStat {
	if p == nil {
		return nil
	}
	p.latMu.Lock()
	defer p.latMu.Unlock()
	var out []LatencyStat
	for k := LatencyKind(0); k < latKinds; k++ {
		h := &p.lat[k]
		if h.Count() == 0 {
			continue
		}
		out = append(out, LatencyStat{
			Name:  k.String(),
			Count: h.Count(),
			P50NS: h.Quantile(0.50),
			P95NS: h.Quantile(0.95),
			P99NS: h.Quantile(0.99),
			MaxNS: h.Max(),
		})
	}
	return out
}

// MergeLatencyStats folds many planes' histograms into one summary in
// canonical kind order — the cluster-wide view across node planes.
func MergeLatencyStats(planes ...*Plane) []LatencyStat {
	var merged [latKinds]metrics.Log2Hist
	for _, p := range planes {
		if p == nil {
			continue
		}
		p.latMu.Lock()
		for k := LatencyKind(0); k < latKinds; k++ {
			merged[k].Merge(&p.lat[k])
		}
		p.latMu.Unlock()
	}
	var out []LatencyStat
	for k := LatencyKind(0); k < latKinds; k++ {
		if merged[k].Count() == 0 {
			continue
		}
		out = append(out, LatencyStat{
			Name:  k.String(),
			Count: merged[k].Count(),
			P50NS: merged[k].Quantile(0.50),
			P95NS: merged[k].Quantile(0.95),
			P99NS: merged[k].Quantile(0.99),
			MaxNS: merged[k].Max(),
		})
	}
	return out
}

// latencySummary is the SummaryJSON document shape.
type latencySummary struct {
	Node    string        `json:"node,omitempty"`
	Latency []LatencyStat `json:"latency"`
}

// SummaryJSON renders the latency summary as stable JSON: fixed field
// order, histograms in the committed canonical kind order, 2-space
// indent, trailing newline. Intended for machine consumers (exporters,
// the bench reports); unlike Snapshot it carries only the latency
// distributions and the plane's node identity.
func (p *Plane) SummaryJSON() ([]byte, error) {
	doc := latencySummary{Latency: p.LatencyStats()}
	if p != nil {
		doc.Node = p.node
	}
	if doc.Latency == nil {
		doc.Latency = []LatencyStat{}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

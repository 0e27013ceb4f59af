package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Predictive-admission benchmark: the seeded execution-time drift run
// twice — once under the reactive guard (measure, confirm, step down)
// and once with the forecasting estimator on top (project the trend,
// step down before the miss). The committed BENCH_predict.json pins the
// headline claim — strictly fewer hard deadline misses at equal or
// better availability — plus byte-determinism across reruns.

// PredictBenchConfig sizes MeasurePredict. The zero value selects the
// reference configuration the committed baseline uses.
type PredictBenchConfig struct {
	// Seed drives everything (default 1).
	Seed uint64
}

func (c *PredictBenchConfig) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PredictVariant is one ablation arm (reactive or predictive).
type PredictVariant struct {
	Variant string `json:"variant"` // "reactive" | "predictive"
	// HardMisses is calc's deadline misses + skipped releases across the
	// run; FirstMissMS is when the first landed (negative: never).
	HardMisses  uint64  `json:"hard_misses"`
	FirstMissMS float64 `json:"first_miss_ms"`
	// ForecastMS is when the estimator first forecast the violation
	// (negative: never — always negative in the reactive arm).
	ForecastMS float64 `json:"forecast_ms"`
	// Availability is calc's fraction of the run spent ACTIVE.
	Availability      float64 `json:"availability"`
	Downgrades        int     `json:"downgrades"`
	PredictDowngrades int     `json:"predict_downgrades"`
	Revokes           int     `json:"revokes"`
	// StreamDigest is the ID-free span-stream digest.
	StreamDigest string `json:"stream_digest"`
	SpanCount    uint64 `json:"span_count"`
}

// PredictReport is the machine-readable snapshot cmd/latbench writes to
// BENCH_predict.json.
type PredictReport struct {
	GoVersion string           `json:"go_version"`
	NumCPU    int              `json:"num_cpu"`
	Seed      uint64           `json:"seed"`
	Variants  []PredictVariant `json:"variants"`
	// Repeatable confirms a second predictive run reproduced the digest.
	Repeatable bool `json:"repeatable"`
}

// MeasurePredict runs the drift campaign in both guard configurations,
// then re-runs the predictive arm to pin digest repeatability.
func MeasurePredict(cfg PredictBenchConfig) (PredictReport, error) {
	cfg.applyDefaults()
	rep := PredictReport{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Seed:      cfg.Seed,
	}
	ms := func(t sim.Time) float64 {
		if t == 0 {
			return -1
		}
		return float64(t) / 1e6
	}
	var predictiveDigest string
	for _, predictive := range []bool{false, true} {
		res, err := workload.RunPredictCampaign(workload.PredictConfig{Seed: cfg.Seed, Predictive: predictive})
		if err != nil {
			return PredictReport{}, fmt.Errorf("bench: predict campaign (predictive=%v): %w", predictive, err)
		}
		v := PredictVariant{
			Variant:           "reactive",
			HardMisses:        res.HardMisses,
			FirstMissMS:       ms(res.FirstMissAt),
			ForecastMS:        ms(res.ForecastAt),
			Availability:      res.Availability,
			Downgrades:        res.Downgrades,
			PredictDowngrades: res.PredictDowngrades,
			Revokes:           res.Revokes,
			StreamDigest:      res.StreamDigest,
			SpanCount:         res.SpanCount,
		}
		if predictive {
			v.Variant = "predictive"
			predictiveDigest = res.StreamDigest
		}
		rep.Variants = append(rep.Variants, v)
	}
	again, err := workload.RunPredictCampaign(workload.PredictConfig{Seed: cfg.Seed, Predictive: true})
	if err != nil {
		return PredictReport{}, fmt.Errorf("bench: predict campaign repeat: %w", err)
	}
	rep.Repeatable = again.StreamDigest == predictiveDigest
	return rep, nil
}

// Validate checks the invariants a fresh or committed report must
// satisfy; cmd/latbench runs it after writing BENCH_predict.json, and
// the CI smoke runs it against the committed file.
func (r PredictReport) Validate() error {
	if len(r.Variants) != 2 {
		return fmt.Errorf("predict report: %d variants, want 2 (reactive/predictive)", len(r.Variants))
	}
	byName := map[string]PredictVariant{}
	for _, v := range r.Variants {
		if len(v.StreamDigest) != 64 || v.SpanCount == 0 {
			return fmt.Errorf("predict report: variant %s span pin incomplete", v.Variant)
		}
		byName[v.Variant] = v
	}
	reactive, ok := byName["reactive"]
	if !ok {
		return errors.New("predict report: reactive variant missing")
	}
	predictive, ok := byName["predictive"]
	if !ok {
		return errors.New("predict report: predictive variant missing")
	}
	if reactive.HardMisses == 0 {
		return errors.New("predict report: reactive baseline recorded no hard misses; the drift is not biting")
	}
	if predictive.HardMisses >= reactive.HardMisses {
		return fmt.Errorf("predict report: predictive misses %d not strictly below reactive %d",
			predictive.HardMisses, reactive.HardMisses)
	}
	if predictive.Availability < reactive.Availability {
		return fmt.Errorf("predict report: predictive availability %.4f below reactive %.4f",
			predictive.Availability, reactive.Availability)
	}
	if predictive.ForecastMS < 0 || predictive.PredictDowngrades == 0 {
		return fmt.Errorf("predict report: predictive arm never forecast: %+v", predictive)
	}
	if reactive.ForecastMS >= 0 || reactive.PredictDowngrades != 0 {
		return fmt.Errorf("predict report: reactive arm forecast: %+v", reactive)
	}
	if reactive.FirstMissMS >= 0 && predictive.ForecastMS >= reactive.FirstMissMS {
		return fmt.Errorf("predict report: forecast at %.1f ms not before the reactive first miss at %.1f ms",
			predictive.ForecastMS, reactive.FirstMissMS)
	}
	if !r.Repeatable {
		return errors.New("predict report: stream digest not repeatable across runs")
	}
	return nil
}

// Encode renders the report the way the committed BENCH_predict.json is
// stored: two-space indentation, trailing newline, human-diffable.
func (r PredictReport) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// FormatPredict renders the report for terminal output.
func FormatPredict(r PredictReport) string {
	var b strings.Builder
	b.WriteString("Predictive admission — same drift, reactive vs forecasting guard\n")
	fmt.Fprintf(&b, "%11s %7s %14s %12s %6s %5s %6s %4s\n",
		"variant", "misses", "first-miss-ms", "forecast-ms", "avail", "down", "p-down", "rev")
	for _, v := range r.Variants {
		fmt.Fprintf(&b, "%11s %7d %14.1f %12.1f %6.3f %5d %6d %4d\n",
			v.Variant, v.HardMisses, v.FirstMissMS, v.ForecastMS, v.Availability,
			v.Downgrades, v.PredictDowngrades, v.Revokes)
	}
	fmt.Fprintf(&b, "repeatable=%v\n", r.Repeatable)
	return b.String()
}

package bench

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// AblationPredict runs the seeded execution-time drift twice: once under
// the reactive guard (measure, confirm, step down) and once with the
// forecasting estimator on top (project the trend, step down before the
// miss). The reactive row comes first. The claim — strictly fewer hard
// deadline misses at equal or better availability — and both arms'
// span digests are pinned in internal/workload's TestPredictAblation
// and TestPredictShardInvariance.
func AblationPredict(seed uint64) ([]workload.PredictResult, error) {
	var rows []workload.PredictResult
	for _, predictive := range []bool{false, true} {
		res, err := workload.RunPredictCampaign(workload.PredictConfig{Seed: seed, Predictive: predictive})
		if err != nil {
			return nil, fmt.Errorf("bench: predict campaign (predictive=%v): %w", predictive, err)
		}
		rows = append(rows, res)
	}
	return rows, nil
}

// FormatPredict renders the predictive-admission ablation; a first miss
// or forecast that never happened prints as "-".
func FormatPredict(rows []workload.PredictResult) string {
	ms := func(t sim.Time) string {
		if t == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(t)/1e6)
	}
	variant := map[bool]string{false: "reactive", true: "predictive"} // by Predictive
	var b strings.Builder
	b.WriteString("Predictive admission — same drift, reactive vs forecasting guard\n")
	fmt.Fprintf(&b, "%11s %7s %14s %12s %6s %5s %6s %4s\n",
		"variant", "misses", "first-miss-ms", "forecast-ms", "avail", "down", "p-down", "rev")
	for _, r := range rows {
		fmt.Fprintf(&b, "%11s %7d %14s %12s %6.3f %5d %6d %4d\n",
			variant[r.Predictive], r.HardMisses, ms(r.FirstMissAt), ms(r.ForecastAt), r.Availability,
			r.Downgrades, r.PredictDowngrades, r.Revokes)
	}
	return b.String()
}

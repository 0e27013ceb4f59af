package bench

import (
	"fmt"
	"strings"

	"repro/internal/workload"
)

// AblationDegrade runs the seeded degradation campaign twice under the
// same faults: once with the declared mode ladders (downgrade-before-
// deny, guard step-down, supervised restart) and once with them stripped
// (the binary admit-or-deny baseline). The graceful row comes first.
// The campaign's digests are pinned in internal/workload's
// TestDegradeCampaignGolden and TestDegradeBinaryAblation.
func AblationDegrade(seed uint64) ([]workload.DegradeResult, error) {
	var rows []workload.DegradeResult
	for _, binary := range []bool{false, true} {
		res, err := workload.RunDegradeCampaign(workload.DegradeConfig{Seed: seed, Binary: binary})
		if err != nil {
			return nil, fmt.Errorf("bench: degrade campaign (binary=%v): %w", binary, err)
		}
		rows = append(rows, res)
	}
	return rows, nil
}

// FormatDegrade renders the degradation ablation: per-component
// availability, mean admitted budget, ladder and supervisor activity,
// and calc's time back to the full contract after the fault clears
// ("-" when it never returned).
func FormatDegrade(rows []workload.DegradeResult) string {
	variant := map[bool]string{false: "degrade", true: "binary"} // by Binary
	var b strings.Builder
	b.WriteString("Graceful degradation — same faults, with and without the mode ladder\n")
	fmt.Fprintf(&b, "%8s %6s %6s %6s %9s %7s %7s %6s %6s %6s %11s\n",
		"variant", "calc", "disp", "aux", "mean-util", "denies", "revokes", "down", "up", "rstrt", "repromo-ms")
	for _, r := range rows {
		repromo := "-"
		if r.TimeToRepromo >= 0 {
			repromo = fmt.Sprintf("%.1f", float64(r.TimeToRepromo)/1e6)
		}
		fmt.Fprintf(&b, "%8s %6.3f %6.3f %6.3f %9.3f %7d %7d %6d %6d %6d %11s\n",
			variant[r.Binary], r.Availability["calc"], r.Availability["disp"], r.Availability["zaux"],
			r.MeanUtil, r.Denies, r.Revokes, r.Downgrades, r.Upgrades, r.Restarts, repromo)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%s span digest: %s\n", variant[r.Binary], r.SpanDigest)
	}
	return b.String()
}

package contract

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// The predictive guard: instead of waiting for a measured overrun, each
// budget-declaring component gets an online estimator over its windowed
// utilization. A least-squares trend projected PredictLead windows ahead
// plus the window's spread gives a Gaussian estimate of the probability
// that the next windows exceed the enforcement limit; a log2 histogram of
// every utilization sample adds a distribution-free tail term for spiky
// workloads the Gaussian underestimates. When the blended miss
// probability exceeds the component's declared allowance (1 − p), the
// guard steps it down its mode ladder BEFORE the first hard miss, with
// hysteresis so a forecast hovering at the threshold cannot flap.

// minForecastSamples is how many windows the estimator needs before it
// emits a forecast; below this the trend is noise.
const minForecastSamples = 4

// sigmaFloor keeps the Gaussian term defined on perfectly flat windows.
const sigmaFloor = 1e-4

// predictor is the per-component forecasting state. It is keyed to the
// mode it was built in: utilizations measured under different modes have
// different periods and declared budgets, so a mode change (down OR back
// up) resets the window and the histogram.
type predictor struct {
	utils []float64        // ring of windowed utilizations, oldest first
	hist  metrics.Log2Hist // utilization samples this mode, in basis points
	armed bool
	mode  int // the component mode the samples were measured under
}

// Forecast is one component's predicted miss probability and the
// estimator state behind it (exposed to the console).
type Forecast struct {
	At        sim.Time
	Component string
	PMiss     float64 // blended P(miss) over the next PredictLead windows
	Allowed   float64 // allowance: 1 − declared p
	Projected float64 // trend-projected utilization at the lead horizon
	Limit     float64 // enforcement limit (cpuusage × overrunFactor)
	Sigma     float64 // residual spread of the utilization window
	Armed     bool    // false while hysteresis holds the trigger down
	Samples   int     // windows seen by the estimator
}

// Forecasts returns the latest forecast per component, name-sorted.
func (g *Guard) Forecasts() []Forecast {
	out := make([]Forecast, 0, len(g.forecasts))
	for _, f := range g.forecasts {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// predictStep feeds one measured window into the component's estimator
// and returns a step-down action when the forecast crosses the
// allowance. Runs only for active, budget-declaring components on a
// clean window (a reactive violation in the same window wins).
func (g *Guard) predictStep(now sim.Time, info core.Info, m *monitor) (action, bool) {
	if !g.opts.Predict || info.BudgetDist == "" || !m.utilValid || info.CPUUsage <= 0 {
		return action{}, false
	}
	if m.pred == nil || m.pred.mode != info.Mode {
		m.pred = &predictor{armed: true, mode: info.Mode}
	}
	p := m.pred
	p.utils = append(p.utils, m.lastUtil)
	if len(p.utils) > predictWindow {
		copy(p.utils, p.utils[1:])
		p.utils = p.utils[:len(p.utils)-1]
	}
	p.hist.Observe(int64(m.lastUtil * 1e4))

	f := Forecast{
		At:        now,
		Component: info.Name,
		Allowed:   1 - info.BudgetP,
		Limit:     info.CPUUsage * overrunFactor,
		Armed:     p.armed,
		Samples:   len(p.utils),
	}
	if g.forecasts == nil {
		g.forecasts = map[string]Forecast{}
	}
	if len(p.utils) < minForecastSamples {
		g.forecasts[info.Name] = f
		return action{}, false
	}

	proj, sigma := projectTrend(p.utils, g.opts.PredictLead)
	f.Projected = proj
	f.Sigma = sigma
	// Gaussian term: P(utilization at the lead horizon exceeds the limit).
	pGauss := 0.5 * math.Erfc((f.Limit-proj)/(sigma*math.Sqrt2))
	// Distribution-free tail: the observed fraction of samples in
	// histogram buckets entirely above the limit (underestimates, never
	// false-alarms).
	f.PMiss = math.Max(pGauss, tailFraction(&p.hist, int64(f.Limit*1e4)))

	if !p.armed {
		// Hysteresis: re-arm only once the forecast has dropped well
		// below the allowance.
		if f.PMiss < f.Allowed*rearmBand {
			p.armed = true
			f.Armed = true
		}
		g.forecasts[info.Name] = f
		return action{}, false
	}
	g.forecasts[info.Name] = f
	if f.PMiss <= f.Allowed || info.Mode+1 >= len(info.Modes) {
		return action{}, false
	}
	p.armed = false
	detail := fmt.Sprintf("forecast P(miss)=%.3f > %.3f over next %d windows (projected util %.4f, limit %.4f)",
		f.PMiss, f.Allowed, g.opts.PredictLead, proj, f.Limit)
	plane := g.d.Obs()
	// Chain the forecast to the open fault on the component (if any), and
	// the downgrade to the forecast: inject → forecast → downgrade.
	span := plane.Forecast(now, info.Name, detail, plane.OpenCause(info.Name))
	g.record(now, "forecast", info.Name, detail)
	return action{name: info.Name, reason: detail, cause: span, forecast: true}, true
}

// projectTrend fits a least-squares line through the utilization window
// and returns its value lead steps past the newest sample, plus the
// residual standard deviation (floored).
func projectTrend(utils []float64, lead int) (proj, sigma float64) {
	n := float64(len(utils))
	var sx, sy, sxx, sxy float64
	for i, u := range utils {
		x := float64(i)
		sx += x
		sy += u
		sxx += x * x
		sxy += x * u
	}
	den := n*sxx - sx*sx
	var a, b float64 // intercept, slope
	if den != 0 {
		b = (n*sxy - sx*sy) / den
		a = (sy - b*sx) / n
	} else {
		a = sy / n
	}
	proj = a + b*(n-1+float64(lead))
	var ss float64
	for i, u := range utils {
		r := u - (a + b*float64(i))
		ss += r * r
	}
	sigma = math.Sqrt(ss / n)
	if sigma < sigmaFloor {
		sigma = sigmaFloor
	}
	return proj, sigma
}

// tailFraction is the fraction of observed samples in buckets whose
// entire range lies above the limit.
func tailFraction(h *metrics.Log2Hist, limit int64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	var above uint64
	for b := 0; b < h.NumBuckets(); b++ {
		lo, _ := h.BucketRange(b)
		if lo >= limit {
			above += h.Bucket(b)
		}
	}
	return float64(above) / float64(total)
}

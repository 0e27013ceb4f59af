package bench

import (
	"strings"
	"testing"
)

// TestPredictAblationTable runs the predictive-admission ablation and
// checks its table: reactive row first, and a first miss or forecast
// that never happened printed as "-", never as the -1.0 sentinel.
func TestPredictAblationTable(t *testing.T) {
	rows, err := AblationPredict(1)
	if err != nil {
		t.Fatalf("AblationPredict: %v", err)
	}
	if len(rows) != 2 || rows[0].Predictive || !rows[1].Predictive {
		t.Fatalf("got %d rows, want reactive then predictive", len(rows))
	}
	out := FormatPredict(rows)
	for _, want := range []string{
		"   reactive       2          543.0            -  1.000     1      0    0\n",
		" predictive       0              -        530.0  1.000     0      1    0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-1.0") {
		t.Errorf("table prints the never-sentinel as a number:\n%s", out)
	}
}

package bench

import (
	"strings"
	"testing"
)

// TestMeasureDegrade runs the degradation ablation and checks its table:
// graceful row first, the binary row's time back to the full contract
// printed as "-" (it never returned), never as the -1 ns sentinel.
func TestMeasureDegrade(t *testing.T) {
	rows, err := AblationDegrade(1)
	if err != nil {
		t.Fatalf("AblationDegrade: %v", err)
	}
	if len(rows) != 2 || rows[0].Binary || !rows[1].Binary {
		t.Fatalf("got %d rows, want graceful then binary", len(rows))
	}
	if rows[0].TimeToRepromo <= 0 || rows[1].TimeToRepromo >= 0 {
		t.Errorf("repromotion graceful=%v binary=%v, want positive and never",
			rows[0].TimeToRepromo, rows[1].TimeToRepromo)
	}
	out := FormatDegrade(rows)
	for _, want := range []string{
		" degrade  1.000  1.000  0.983     0.154       0       0      5      3      1       220.0\n",
		"  binary  0.517  0.517  0.483     0.500       3       1      0      0      1           -\n",
		"degrade span digest: " + rows[0].SpanDigest + "\n",
		"binary span digest: " + rows[1].SpanDigest + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-0.0") {
		t.Errorf("table prints the never-sentinel as a number:\n%s", out)
	}
}

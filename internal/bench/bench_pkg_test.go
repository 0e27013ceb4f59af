package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rtos"
	"repro/internal/workload"
)

func TestTable1Render(t *testing.T) {
	out, rows, err := Table1(3000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, label := range []string{"HRC (light)", "Pure RTAI (light)", "HRC (stress)", "Pure RTAI (stress)"} {
		if !strings.Contains(out, label) {
			t.Errorf("output missing %q:\n%s", label, out)
		}
	}
	cmp := CompareWithPaper(rows)
	if !strings.Contains(cmp, "paper AVG") || !strings.Contains(cmp, "HRC (stress)") {
		t.Errorf("comparison malformed:\n%s", cmp)
	}
}

// TestTable1ParallelMatchesSequential checks that Table 1 renders the
// same bytes and rows on one worker as on four.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	const samples = 400
	seqOut, seqRows, err := Table1(samples, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	parOut, parRows, err := Table1(samples, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seqOut != parOut {
		t.Errorf("rendered tables differ:\n--- workers=1\n%s\n--- workers=4\n%s", seqOut, parOut)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("rows differ between workers=1 and workers=4")
	}
}

func TestAblationIntraComm(t *testing.T) {
	rows, err := AblationIntraComm(3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Mode != "async" || rows[1].Mode != "sync" {
		t.Fatalf("rows = %+v", rows)
	}
	// The design claim: synchronous command handling degrades worst-case
	// dispatch latency; async does not.
	if rows[1].Latency.Max <= rows[0].Latency.Max {
		t.Errorf("sync max %d not worse than async max %d",
			rows[1].Latency.Max, rows[0].Latency.Max)
	}
	out := FormatIntraComm(rows)
	if !strings.Contains(out, "async") || !strings.Contains(out, "sync") {
		t.Errorf("format:\n%s", out)
	}
}

func TestAblationAdmission(t *testing.T) {
	rows, err := AblationAdmission(3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	on, off := rows[0], rows[1]
	if on.Admission != "enforced" || off.Admission != "disabled" {
		t.Fatalf("labels = %+v", rows)
	}
	// Admission keeps the admitted set within budget: no misses at all.
	if on.Misses != 0 {
		t.Errorf("enforced admission still missed %d deadlines", on.Misses)
	}
	if on.Active >= off.Active {
		t.Errorf("enforcement admitted %d >= unenforced %d", on.Active, off.Active)
	}
	// Without admission the oversubscribed set breaks contracts.
	if off.Misses == 0 && off.Skips == 0 {
		t.Error("disabled admission produced no contract violations")
	}
	out := FormatAdmission(rows)
	if !strings.Contains(out, "enforced") {
		t.Errorf("format:\n%s", out)
	}
}

func TestAblationResolvers(t *testing.T) {
	rows, err := AblationResolvers()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ResolverResult{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// Crossover: utilization and EDF admit the whole density-1.0 set; RMA
	// with rate-inverted fixed priorities must deny at least one.
	if byName["utilization"].Admitted != 3 {
		t.Errorf("utilization admitted %d", byName["utilization"].Admitted)
	}
	if byName["edf"].Admitted != 3 {
		t.Errorf("edf admitted %d", byName["edf"].Admitted)
	}
	if byName["rma"].Denied == 0 {
		t.Error("rma denied nothing on the rate-inverted set")
	}
	out := FormatResolvers(rows)
	if !strings.Contains(out, "rma") {
		t.Errorf("format:\n%s", out)
	}
}

func TestHistogramRender(t *testing.T) {
	out, err := Histogram(workload.LatencyConfig{Mode: rtos.StressLoad, Samples: 2000, Seed: 2}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "stress") {
		t.Errorf("histogram:\n%s", out)
	}
}

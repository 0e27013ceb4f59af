package bench

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestMonteCarloWorkerIndependence demands identical merged results for
// any worker count: the whole point of per-seed Systems is that goroutine
// interleave cannot leak into the output. The run is the reference one —
// eight seeded §4.2 HRC light-load systems of 10,000 samples each, seeds
// 1..8 — whose pooled row is pinned below; samples merge in seed order,
// so even the float sums are exact. Refresh deliberately, never casually.
func TestMonteCarloWorkerIndependence(t *testing.T) {
	cfg := workload.LatencyConfig{Hybrid: true, Samples: 10000}
	const runs = 8
	seq, seqRow, err := MonteCarloLatency(cfg, runs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, parRow, err := MonteCarloLatency(cfg, runs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRow, parRow) {
		t.Errorf("pooled row diverged:\n  workers=1 %+v\n  workers=4 %+v", seqRow, parRow)
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Row, par[i].Row) {
			t.Errorf("seed %d row diverged between worker counts", 1+uint64(i))
		}
	}
	if seqRow.N != 80002 || seqRow.Min != -30444 || seqRow.Max != 30972 ||
		seqRow.Average != -629.0032874178146 || seqRow.AveDev != 3210.06883627221 {
		t.Errorf("pooled row %+v, want n=80002 avg=-629.0032874178146 avedev=3210.06883627221 min=-30444 max=30972", seqRow)
	}
}

// TestMonteCarloErrorReportsFirstSeed pins deterministic error selection:
// whichever goroutine fails first in wall time, the reported seed is the
// lowest failing one.
func TestMonteCarloErrorReportsFirstSeed(t *testing.T) {
	boom := errors.New("boom")
	_, err := MonteCarlo(8, 10, 4, func(seed uint64) (int, error) {
		if seed >= 12 {
			return 0, boom
		}
		return int(seed), nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := "seed 12"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %q, want mention of %q", err, want)
	}
}

// TestTable1ParallelMatchesSequential checks the concurrent Table 1
// produces byte-identical output to the sequential path.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	const samples = 400
	seqOut, seqRows, err := Table1(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	parOut, parRows, err := Table1Parallel(samples, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if seqOut != parOut {
		t.Errorf("rendered tables differ:\n--- sequential\n%s\n--- parallel\n%s", seqOut, parOut)
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("rows differ between sequential and parallel Table 1")
	}
}

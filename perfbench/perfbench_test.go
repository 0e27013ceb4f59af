package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"
)

// runOnce executes one round of w and fails the test on a benchmark error
// or a failed correctness check.
func runOnce(t *testing.T, w workload, seed uint64, traced bool) *round {
	t.Helper()
	r := newRound()
	if traced {
		r.tr = newTracer(false)
	}
	if err := w.run(seed, r); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	r.streamDigest = r.stream.sum()
	for _, f := range r.failures {
		t.Errorf("seed %d: check failed: %s", seed, f)
	}
	if r.opErrs > 0 {
		t.Errorf("seed %d: %d operations failed, first: %s", seed, r.opErrs, r.firstErr)
	}
	return r
}

// TestDeterminism runs every workload twice with one seed, the second
// time traced (spans taken from outside may not change behaviour), and
// requires identical digests, exact counts and simulated results; then it
// runs a second seed and requires different digests, which proves the
// seed reaches the generators.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runOnce(t, w, 11, false)
			b := runOnce(t, w, 11, true)
			if a.streamDigest != b.streamDigest || a.state != b.state {
				t.Errorf("traced round digests differ from the untraced round")
			}
			if !maps.Equal(a.counts, b.counts) {
				t.Errorf("exact counts differ:\nuntraced %v\ntraced   %v", a.counts, b.counts)
			}
			if !maps.Equal(a.sims, b.sims) {
				t.Errorf("simulated results differ:\nuntraced %v\ntraced   %v", a.sims, b.sims)
			}
			c := runOnce(t, w, 12, false)
			if c.streamDigest == a.streamDigest {
				t.Error("the input stream digest ignores the seed")
			}
			if c.state == a.state {
				t.Error("the state digest ignores the seed")
			}
		})
	}
}

// TestOutputContract checks the last line of a short run: one JSON object
// with exactly the keys correct, attempted, failed and metrics, carrying
// every contract metric of the mode with its unit.
func TestOutputContract(t *testing.T) {
	for _, tc := range []struct {
		trace   string
		metrics []contractMetric
	}{{"0", e2eMetrics}, {"1", layerMetrics}} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "bundle-churn", "--seed", "5", "--seconds", "0.01", "--trace", tc.trace, "--out", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", tc.trace, err)
		}
		if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
			t.Fatalf("trace %s: want exactly correct, attempted, failed, metrics; got %d keys", tc.trace, len(line))
		}
		if string(line["correct"]) != "true" {
			t.Errorf("trace %s: correct = %s\n%s", tc.trace, line["correct"], out.String())
		}
		var metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.metrics) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(metrics), len(tc.metrics))
		}
		for _, m := range tc.metrics {
			got, ok := metrics[m.name]
			if !ok || got.Unit != m.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, m.name, got, m.unit)
			}
		}
	}
}

// TestUsage rejects unknown workloads without printing a result.
func TestUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/osgi"
	"repro/internal/rtos"
)

// TestAdmittedEpochMoves pins when the admitted epoch moves: on every
// operation that changes the admitted set, an admitted mode or an
// admitted state, and not on a resolution pass that changes nothing.
func TestAdmittedEpochMoves(t *testing.T) {
	_, _, d := newRig(t)
	step := func(label string, wantMove bool, op func() error) {
		t.Helper()
		before := d.AdmittedEpoch()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if moved := d.AdmittedEpoch() != before; moved != wantMove {
			t.Errorf("%s: epoch moved = %v, want %v", label, moved, wantMove)
		}
	}
	step("deploy", true, func() error { return d.Deploy(mustParse(t, calcModesXML)) })
	step("no-op resolve", false, func() error { d.Resolve(); return nil })
	step("deploy unsatisfied", false, func() error {
		return d.Deploy(mustParse(t, localXML("orphan", 1, 0.01, []string{"nobody"}, nil, "")))
	})
	step("suspend", true, func() error { return d.Suspend("calc") })
	step("resume", true, func() error { return d.Resume("calc") })
	step("downgrade", true, func() error { return d.Downgrade("calc", "test") })
	step("no-op resolve under hold", false, func() error { d.Resolve(); return nil })
	step("promote", true, func() error { return d.AllowPromotion("calc") })
	step("disable", true, func() error { return d.Disable("calc") })
	step("enable", true, func() error { return d.Enable("calc") })
	step("revoke", true, func() error { return d.RevokeBudget("calc", "test") })
	step("restore", true, func() error { return d.RestoreBudget("calc") })
	step("remove", true, func() error { return d.Remove("calc") })
	step("no-op resolve after remove", false, func() error { d.Resolve(); return nil })

	// A whole-bundle deploy moves it too.
	r := newPlanRig(t)
	before := r.d.AdmittedEpoch()
	r.deployBundle(t, "epoch.bundle", []string{
		localXML("bp", 0, 0.05, nil, []string{"bt"}, ""),
		localXML("bc", 1, 0.05, []string{"bt"}, nil, ""),
	})
	if r.d.AdmittedEpoch() == before {
		t.Error("bundle deploy: admitted epoch did not move")
	}
	if got := r.d.AppendAdmitted(nil); len(got) != 2 {
		t.Errorf("bundle deploy admitted %v, want bc and bp", got)
	}
	// The bundle's event log is the one recorded before the plan
	// fast-apply was retired.
	if got, want := traceDigest(r.d.Events()), "b3506f8a1010c785e119020b3740464483761027f386a6c1acf69257eac9873f"; got != want {
		t.Errorf("bundle deploy event trace %s, want %s", got, want)
	}
}

// admittedFromComponents is the reference AppendAdmitted is held to:
// Components() filtered to ACTIVE and SUSPENDED.
func admittedFromComponents(d *DRCR) []Admitted {
	var out []Admitted
	for _, info := range d.Components() {
		if info.State == Active || info.State == Suspended {
			out = append(out, Admitted{Name: info.Name, Mode: info.Mode})
		}
	}
	return out
}

// TestAppendAdmittedMatchesComponents replays seeded lifecycle churn —
// deploy/remove, enable/disable, revoke/restore, suspend/resume,
// downgrade/promote — at 1 and 4 stripes. After every operation the
// narrow reader must equal the filtered Components() snapshot, and
// whenever the admitted epoch held still the reader's answer must not
// have changed either (the guarantee the cluster barrier skips work on).
func TestAppendAdmittedMatchesComponents(t *testing.T) {
	descs, names := buildChurnTopology(t, 6, 2, 6)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("lm%02d", i)
		descs[name] = mustParse(t, localXML(name, i%4, 0.3, nil, nil,
			`<mode name="eco" cpuusage="0.1"/>`))
		names = append(names, name)
	}
	for _, seed := range []int64{1, 2, 3} {
		fw := osgi.NewFramework()
		k := rtos.NewKernel(rtos.Config{NumCPUs: 4, Timing: &noNoise, Seed: 5})
		d, err := New(fw, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			_ = d.Deploy(descs[name])
		}
		rng := rand.New(rand.NewSource(seed))
		var buf []Admitted
		lastEpoch, last := d.AdmittedEpoch(), admittedFromComponents(d)
		for op := 0; op < 400; op++ {
			name := names[rng.Intn(len(names))]
			info, deployed := d.Component(name)
			switch rng.Intn(5) {
			case 0:
				if deployed {
					_ = d.Remove(name)
				} else {
					_ = d.Deploy(descs[name])
				}
			case 1:
				if info.State == Disabled {
					_ = d.Enable(name)
				} else {
					_ = d.Disable(name)
				}
			case 2:
				if info.Revoked {
					_ = d.RestoreBudget(name)
				} else {
					_ = d.RevokeBudget(name, "churn")
				}
			case 3:
				if info.State == Suspended {
					_ = d.Resume(name)
				} else {
					_ = d.Suspend(name)
				}
			case 4:
				if info.Mode > 0 {
					_ = d.AllowPromotion(name)
				} else {
					_ = d.Downgrade(name, "churn")
				}
			}
			want := admittedFromComponents(d)
			buf = d.AppendAdmitted(buf[:0])
			if !reflect.DeepEqual(append([]Admitted(nil), buf...), want) {
				t.Fatalf("seed %d op %d: AppendAdmitted %v, want %v", seed, op, buf, want)
			}
			epoch := d.AdmittedEpoch()
			if epoch == lastEpoch && !reflect.DeepEqual(want, last) {
				t.Fatalf("seed %d op %d: admitted set changed without the epoch moving", seed, op)
			}
			lastEpoch, last = epoch, want
		}
		if n := testing.AllocsPerRun(20, func() { buf = d.AppendAdmitted(buf[:0]) }); n != 0 {
			t.Errorf("seed %d: AppendAdmitted into a sized buffer allocates %.0f", seed, n)
		}
		d.Close()
	}
}

package core

import (
	"fmt"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/osgi"
	"repro/internal/policy"
	"repro/internal/rtos"
)

// Population scaling of one management operation. CPU 0 holds
// scaleAdmitted components at 0.004 each, which fill its budget; every
// other component of the population is pinned there too, at 0.005, and
// waits for admission. Disabling an admitted component frees 0.004,
// which no waiter fits into, and enabling it takes the slot back, so a
// Disable+Enable pair leaves the population where it found it.
const (
	scaleAdmitted = 250
	scaleTarget   = "m0125" // an admitted component in the middle of the list
)

// scalingRig deploys an n-component scaling population: the admitted
// components are named m…, the waiters a… and z… alternately, so a
// re-armed waiter sits on either side of the target in name order.
func scalingRig(tb testing.TB, n int, internal policy.Resolver) *DRCR {
	tb.Helper()
	fw := osgi.NewFramework()
	k := rtos.NewKernel(rtos.Config{NumCPUs: 2, Timing: &noNoise, Seed: 17})
	d, err := New(fw, k, Options{Internal: internal})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Close)
	deploy := func(name string, usage float64) {
		desc, err := descriptor.Parse(churnXML(name, 0, usage, nil, nil))
		if err == nil {
			err = d.Deploy(desc)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < scaleAdmitted; i++ {
		deploy(fmt.Sprintf("m%04d", i), 0.004)
	}
	for i := 0; i < n-scaleAdmitted; i++ {
		prefix := "a"
		if i%2 == 1 {
			prefix = "z"
		}
		deploy(fmt.Sprintf("%s%04d", prefix, i), 0.005)
	}
	return d
}

// disableEnable runs one Disable+Enable pair of the scaling target and
// checks that it came back.
func disableEnable(tb testing.TB, d *DRCR) {
	if err := d.Disable(scaleTarget); err != nil {
		tb.Fatal(err)
	}
	if err := d.Enable(scaleTarget); err != nil {
		tb.Fatal(err)
	}
	if info, _ := d.Component(scaleTarget); info.State != Active {
		tb.Fatalf("%s = %v after Disable+Enable, want ACTIVE", scaleTarget, info.State)
	}
}

// BenchmarkDisableEnableScaling times one Disable+Enable pair of an
// admitted component against a growing population of admission waiters
// on the same processor.
func BenchmarkDisableEnableScaling(b *testing.B) {
	for _, n := range []int{300, 600, 1200, 2400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := scalingRig(b, n, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				disableEnable(b, d)
			}
		})
	}
}

// TestAdmissionConsultsPerOp pins the exact number of admission consults
// one Disable+Enable pair makes on the scaling population. Without the
// deny memo, every waiter on the target's processor is re-consulted after
// each of the two changes, and the target once on its way back. With it
// (a load-only chain), only the first waiter re-armed after each
// change is consulted: the waiters all ask for the same usage, so its
// denial covers the rest.
func TestAdmissionConsultsPerOp(t *testing.T) {
	for _, tc := range []struct {
		n, want int
		memo    bool
	}{{300, 101, false}, {2400, 4301, false}, {300, 3, true}, {2400, 3, true}} {
		r := &countingResolver{local: true, memo: tc.memo, n: map[string]int{}}
		d := scalingRig(t, tc.n, r)
		total := func() int {
			s := 0
			for _, c := range r.n {
				s += c
			}
			return s
		}
		for pair := 0; pair < 3; pair++ {
			before := total()
			disableEnable(t, d)
			if got := total() - before; got != tc.want {
				t.Fatalf("n=%d memo=%v pair %d: %d admission consults, want %d", tc.n, tc.memo, pair, got, tc.want)
			}
		}
	}
}

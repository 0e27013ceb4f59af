package workload

// Resolve-churn storms: deploy/remove/enable/disable/revoke sequences
// over a synthetic component population with realistic port fan-out,
// driving the DRCR's constraint-resolution engine rather than the kernel
// hot path. The same seeded storm replays bit-identically at every
// sampling level, which the tests below pin.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/osgi"
	"repro/internal/rtos"
)

// ChurnSpec sizes one resolve-churn storm.
type ChurnSpec struct {
	// Components is the approximate population size; it is rounded to
	// whole provider→relay→consumers groups (default 100).
	Components int
	// FanOut is the number of consumers per relay topic, 1..9 (default 3).
	FanOut int
	// Steps is the number of lifecycle operations in the storm
	// (default 500).
	Steps int
	// Seed drives both the op stream and the kernel (default 1).
	Seed int64
	// NumCPUs for the simulated kernel (default 4).
	NumCPUs int
	// ObsLevel is the observability sampling level for the run (zero
	// value: Sampled, the default level).
	ObsLevel obs.Level
}

func (s *ChurnSpec) applyDefaults() {
	if s.Components <= 0 {
		s.Components = 100
	}
	if s.FanOut <= 0 {
		s.FanOut = 3
	}
	if s.FanOut > 9 {
		s.FanOut = 9
	}
	if s.Steps <= 0 {
		s.Steps = 500
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.NumCPUs <= 0 {
		s.NumCPUs = 4
	}
}

// ChurnStats reports one storm run.
type ChurnStats struct {
	// Components actually built (groups × (FanOut+2) + heavy tail).
	Components int
	// Steps executed.
	Steps int
	// Events is the total lifecycle-event count.
	Events int
	// TraceDigest is a SHA-256 over the full ordered event log.
	TraceDigest string
	// StateDigest is a SHA-256 over the canonical final component states.
	StateDigest string
	// ObsFullDigest is the observability plane's span digest (span IDs
	// and cause edges included).
	ObsFullDigest string
	// Spans is the lifetime span count the storm emitted.
	Spans uint64
	// Lifecycle is the ID- and cause-free line of every retained span
	// the digest folds (sched and resolve-round spans excluded), oldest
	// first; Evicted reports that the ring dropped spans, so Lifecycle
	// is not the whole stream.
	Lifecycle []string
	Evicted   bool
}

// churnDescriptorXML renders one synthetic component (RTAI names are
// capped at six characters, hence the dense naming).
func churnDescriptorXML(name string, cpu int, usage float64, inports, outports []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<component name=%q type="periodic" cpuusage="%g">`+"\n", name, usage)
	b.WriteString(`  <implementation bincode="churn.Body"/>` + "\n")
	fmt.Fprintf(&b, `  <periodictask frequence="100" runoncup="%d" priority="5"/>`+"\n", cpu)
	for _, p := range inports {
		fmt.Fprintf(&b, `  <inport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", p)
	}
	for _, p := range outports {
		fmt.Fprintf(&b, `  <outport name=%q interface="RTAI.SHM" type="Integer" size="64"/>`+"\n", p)
	}
	b.WriteString(`</component>`)
	return b.String()
}

// buildChurnPopulation creates the storm's component set: producer→relay→
// consumers groups (two-deep cascade chains with fan-out) plus a heavy
// tail whose budgets overflow the CPUs, keeping a persistent set of
// admission-denied waiters in play — the worst case for a full sweep.
func buildChurnPopulation(spec ChurnSpec) (map[string]*descriptor.Component, map[string]string, []string, error) {
	groups := spec.Components / (spec.FanOut + 2)
	if groups < 1 {
		groups = 1
	}
	if groups > 999 {
		groups = 999
	}
	heavy := groups / 10
	if heavy < 2 {
		heavy = 2
	}
	descs := map[string]*descriptor.Component{}
	srcs := map[string]string{}
	var names []string
	add := func(name, src string) error {
		c, err := descriptor.Parse(src)
		if err != nil {
			return fmt.Errorf("workload: churn descriptor %s: %w", name, err)
		}
		descs[name] = c
		srcs[name] = src
		names = append(names, name)
		return nil
	}
	for g := 0; g < groups; g++ {
		cpu := g % spec.NumCPUs
		tg := fmt.Sprintf("t%03d", g)
		ug := fmt.Sprintf("u%03d", g)
		pn := fmt.Sprintf("p%03d", g)
		rn := fmt.Sprintf("r%03d", g)
		if err := add(pn, churnDescriptorXML(pn, cpu, 0.0005, nil, []string{tg})); err != nil {
			return nil, nil, nil, err
		}
		if err := add(rn, churnDescriptorXML(rn, cpu, 0.0005, []string{tg}, []string{ug})); err != nil {
			return nil, nil, nil, err
		}
		for f := 0; f < spec.FanOut; f++ {
			cn := fmt.Sprintf("c%03dx%d", g, f)
			if err := add(cn, churnDescriptorXML(cn, cpu, 0.0005, []string{ug}, nil)); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	for h := 0; h < heavy; h++ {
		zn := fmt.Sprintf("z%03d", h)
		if err := add(zn, churnDescriptorXML(zn, h%spec.NumCPUs, 0.45, nil, nil)); err != nil {
			return nil, nil, nil, err
		}
	}
	return descs, srcs, names, nil
}

// RunChurn populates a fresh DRCR (one bundle carrying the whole
// population) and then replays the seeded op storm against it. The op
// stream depends only on the seed and the DRCR's observable state.
func RunChurn(spec ChurnSpec) (ChurnStats, error) {
	spec.applyDefaults()
	descs, srcs, names, err := buildChurnPopulation(spec)
	if err != nil {
		return ChurnStats{}, err
	}

	fw := osgi.NewFramework()
	timing := rtos.TimingModel{}
	k := rtos.NewKernel(rtos.Config{NumCPUs: spec.NumCPUs, Timing: &timing, Seed: uint64(spec.Seed)})
	d, err := core.New(fw, k, core.Options{
		Obs: obs.NewPlane(obs.Options{Level: spec.ObsLevel}),
	})
	if err != nil {
		return ChurnStats{}, err
	}
	defer d.Close()

	m := manifest.New("churn.pop", manifest.MustParseVersion("1.0"))
	def := osgi.Definition{Manifest: m, Resources: map[string]string{}}
	for _, name := range names {
		res := "OSGI-INF/" + name + ".xml"
		m.DRComComponents = append(m.DRComComponents, res)
		def.Resources[res] = srcs[name]
	}
	b, err := fw.Install(def)
	if err != nil {
		return ChurnStats{}, err
	}
	if err := b.Start(); err != nil {
		return ChurnStats{}, err
	}

	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < spec.Steps; i++ {
		target := names[rng.Intn(len(names))]
		switch rng.Intn(3) {
		case 0: // presence toggle: remove, or redeploy if gone
			if _, ok := d.Component(target); ok {
				_ = d.Remove(target)
			} else {
				_ = d.Deploy(descs[target])
			}
		case 1: // enablement toggle
			if info, ok := d.Component(target); ok {
				if info.State == core.Disabled {
					_ = d.Enable(target)
				} else {
					_ = d.Disable(target)
				}
			}
		case 2: // violation revoke/restore toggle
			if info, ok := d.Component(target); ok {
				if info.Revoked {
					_ = d.RestoreBudget(target)
				} else {
					_ = d.RevokeBudget(target, "churn storm violation")
				}
			}
		}
	}

	evs := d.Events()
	th := sha256.New()
	for _, ev := range evs {
		fmt.Fprintf(th, "%d|%s|%v|%v|%s\n", int64(ev.At), ev.Component, ev.From, ev.To, ev.Reason)
	}
	sh := sha256.New()
	for _, info := range d.Components() {
		fmt.Fprintf(sh, "%s|%v|%v|%s|", info.Name, info.State, info.Revoked, info.LastReason)
		keys := make([]string, 0, len(info.Bindings))
		for k := range info.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(sh, "%s->%s,", k, info.Bindings[k])
		}
		sh.Write([]byte("\n"))
	}
	// Captured before the deferred Close so teardown spans don't depend
	// on defer ordering.
	spans := d.Obs().Spans()
	var lifecycle []string
	for _, s := range spans {
		if s.Kind != obs.KindSched && s.Kind != obs.KindResolveRound {
			lifecycle = append(lifecycle, fmt.Sprintf("%d|%s|%s|%s|%s|%d|%s",
				int64(s.At), s.Kind, s.Component, s.From, s.To, s.N, s.Detail))
		}
	}
	return ChurnStats{
		Components:    len(names),
		Steps:         spec.Steps,
		Events:        len(evs),
		TraceDigest:   hex.EncodeToString(th.Sum(nil)),
		StateDigest:   hex.EncodeToString(sh.Sum(nil)),
		ObsFullDigest: d.Obs().Digest(),
		Spans:         d.Obs().Emitted(),
		Lifecycle:     lifecycle,
		Evicted:       uint64(len(spans)) != d.Obs().Emitted(),
	}, nil
}

// The trace and state digests the full-sweep reference engine produced
// on the storm below. That engine is a test oracle in package core, out
// of reach of this package; core's differential tests keep the worklist
// engine in agreement with it. sweepObsGolden is the worklist engine's
// span digest (IDs and cause edges included) of the same run.
const (
	sweepTraceGolden = "f97efaf7bbed4e0f95a93d9cba077f570656894be874600381e4e61ea04c4cf8"
	sweepStateGolden = "2e6b71d2199ae7c6fba17bc8fdd5c519aa756465eaccd1f613ca2e1b398cc355"
	sweepObsGolden   = "ae8f4c0215c67b856d900217e9d28e2aef6a07913c71558f839f9f3d293e9e2c"
	sweepComponents  = 42
	sweepSpans       = 296
)

// The storm, bundle-delivery path included, must replay bit-identically
// to the full-sweep reference engine's recorded run: same event trace,
// same final state, and the pinned span digest.
func TestChurnEnginesAgree(t *testing.T) {
	got, err := RunChurn(ChurnSpec{Components: 40, Steps: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ what, got, want string }{
		{"trace", got.TraceDigest, sweepTraceGolden},
		{"state", got.StateDigest, sweepStateGolden},
		{"obs", got.ObsFullDigest, sweepObsGolden},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %s, full-sweep engine had %s", c.what, c.got, c.want)
		}
	}
	if got.Components != sweepComponents || got.Spans != sweepSpans {
		t.Errorf("%d components, %d spans; full-sweep engine had %d, %d",
			got.Components, got.Spans, sweepComponents, sweepSpans)
	}
}

// Same spec twice must give the same digests — the bench relies on the
// storm being a pure function of the seed.
func TestChurnDeterministic(t *testing.T) {
	spec := ChurnSpec{Components: 30, Steps: 80, Seed: 3}
	a, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.TraceDigest != b.TraceDigest || a.StateDigest != b.StateDigest {
		t.Errorf("non-deterministic storm: %+v vs %+v", a, b)
	}
	if a.ObsFullDigest != b.ObsFullDigest || a.Spans != b.Spans {
		t.Errorf("non-deterministic obs stream: %s/%d vs %s/%d",
			a.ObsFullDigest, a.Spans, b.ObsFullDigest, b.Spans)
	}
}

// Turning on the Full level must not change the storm or any lifecycle
// span: Full adds resolve-round and sched spans and nothing else. The
// ID- and cause-free lines of the spans the digest folds must match
// line for line (Full's extra spans shift IDs, so the digests
// themselves differ by design).
func TestChurnObsDigestLevelIndependent(t *testing.T) {
	spec := ChurnSpec{Components: 30, Steps: 80, Seed: 3}
	sampled, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("sampled run: %v", err)
	}
	spec.ObsLevel = obs.Full
	full, err := RunChurn(spec)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	if sampled.Evicted || full.Evicted {
		t.Fatalf("span ring evicted spans (sampled %v, full %v): lifecycle lines incomplete",
			sampled.Evicted, full.Evicted)
	}
	if sampled.TraceDigest != full.TraceDigest || sampled.StateDigest != full.StateDigest {
		t.Errorf("sampling level changed the storm: trace %s/%s, state %s/%s",
			sampled.TraceDigest, full.TraceDigest, sampled.StateDigest, full.StateDigest)
	}
	if len(sampled.Lifecycle) == 0 {
		t.Fatal("sampled run retained no lifecycle spans")
	}
	if !slices.Equal(sampled.Lifecycle, full.Lifecycle) {
		for i := 0; i < len(sampled.Lifecycle) || i < len(full.Lifecycle); i++ {
			var a, b string
			if i < len(sampled.Lifecycle) {
				a = sampled.Lifecycle[i]
			}
			if i < len(full.Lifecycle) {
				b = full.Lifecycle[i]
			}
			if a != b {
				t.Errorf("lifecycle span %d differs with sampling level:\n sampled %q\n full    %q", i, a, b)
				break
			}
		}
	}
	if full.Spans <= sampled.Spans {
		t.Errorf("full level should emit extra spans: %d vs %d", full.Spans, sampled.Spans)
	}

	// The reference storm (200 components, 400 steps, seed 1) is pinned
	// per level: Off emits nothing (the digest of the empty stream), and
	// Full's extra spans shift every later ID, so it has its own digest.
	for _, tc := range []struct {
		level  obs.Level
		digest string
		spans  uint64
	}{
		{obs.Off, churnObsDigestOff, 0},
		{obs.Sampled, churnObsDigestSampled, 1175},
		{obs.Full, churnObsDigestFull, 1328},
	} {
		got, err := RunChurn(ChurnSpec{Components: 200, Steps: 400, Seed: 1, ObsLevel: tc.level})
		if err != nil {
			t.Fatalf("%s run: %v", tc.level, err)
		}
		if got.ObsFullDigest != tc.digest || got.Spans != tc.spans {
			t.Errorf("%s: span digest %s with %d spans, want %s with %d",
				tc.level, got.ObsFullDigest, got.Spans, tc.digest, tc.spans)
		}
	}
}

// Span digests of the reference churn storm per level; Off is SHA-256
// of the empty stream. Refresh deliberately, never casually.
const (
	churnObsDigestOff     = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	churnObsDigestSampled = "d94be2687be7e92e8c7f4acddaa9604cfe6d4f74f63222125393285ec78dba41"
	churnObsDigestFull    = "ee1ba259f642024f6febb92c5472b98a10e695d5813cf3db98954365e04deb2b"
)

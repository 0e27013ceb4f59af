package workload

// Resolve-churn storms: deploy/remove/enable/disable/revoke sequences
// over a synthetic component population with realistic port fan-out,
// driving the DRCR's constraint-resolution engine rather than the kernel
// hot path. The same seeded storm replays bit-identically at every
// sampling level, which the workload tests pin.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

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
	// ObsDigest is the observability plane's stream digest (IDs, cause
	// edges and resolve-round internals excluded): it does not depend on
	// the sampling level.
	ObsDigest string
	// ObsFullDigest includes span IDs and cause edges.
	ObsFullDigest string
	// Spans is the lifetime span count the storm emitted.
	Spans uint64
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
	return ChurnStats{
		Components:  len(names),
		Steps:       spec.Steps,
		Events:      len(evs),
		TraceDigest: hex.EncodeToString(th.Sum(nil)),
		StateDigest: hex.EncodeToString(sh.Sum(nil)),
		// Captured before the deferred Close so teardown spans don't
		// depend on defer ordering.
		ObsDigest:     d.Obs().StreamDigest(),
		ObsFullDigest: d.Obs().Digest(),
		Spans:         d.Obs().Emitted(),
	}, nil
}

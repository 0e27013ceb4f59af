package plan

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/descriptor"
	"repro/internal/rtos/ipc"
)

// compileEdgesScan is the wiring-table compiler as a member × outport
// scan: for every consumer inport it walks every enabled member's
// outports. It is the reference the indexed compileEdges must match.
func compileEdgesScan(members map[string]*descriptor.Component, names []string,
	extLocal, extRemote map[portKey][]ExtProvider) []Edge {
	var edges []Edge
	for _, name := range names {
		d := members[name]
		if !d.Enabled {
			continue
		}
		for _, in := range d.InPorts {
			var modes []string
			for mi := 0; mi < d.NumModes(); mi++ {
				if d.RequiresInport(mi, in.Name) {
					modes = append(modes, d.ModeName(mi))
				}
			}
			e := Edge{Consumer: name, Inport: in.Name, Modes: modes}
			k := keyOf(in)
			var cands []edgeCand
			for _, pn := range names {
				if pn == name || !members[pn].Enabled {
					continue
				}
				for _, out := range members[pn].OutPorts {
					if keyOf(out) == k {
						cands = append(cands, edgeCand{pn, out, false})
					}
				}
			}
			for _, ep := range extLocal[k] {
				if ep.Origin != name {
					cands = append(cands, edgeCand{ep.Origin, ep.Port, true})
				}
			}
			sort.SliceStable(cands, func(i, j int) bool { return cands[i].origin < cands[j].origin })
			for _, c := range cands {
				if c.port.CanSatisfy(in) {
					e.Provider, e.External = c.origin, c.ext
					break
				}
			}
			if e.Provider == "" {
				for _, ep := range extRemote[k] {
					if ep.Port.CanSatisfy(in) {
						e.Provider, e.External = ep.Origin, true
						break
					}
				}
			}
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Consumer != edges[j].Consumer {
			return edges[i].Consumer < edges[j].Consumer
		}
		return edges[i].Inport < edges[j].Inport
	})
	return edges
}

// edgeBatch generates one random batch and its compile environment:
// disabled members, members that provide their own topic, several
// providers per topic at mixed sizes and transports, versioned ports,
// mode ladders that drop inports, CPUs overloaded past their bound (the
// wiring table ignores budgets), and external local and remote
// providers, some named like members.
func edgeBatch(rng *rand.Rand) ([]*descriptor.Component, Env) {
	topics := []string{"ta", "tb", "tc", "td", "te", "tf"}
	port := func(dir descriptor.Direction) descriptor.Port {
		p := descriptor.Port{
			Name:      topics[rng.Intn(len(topics))],
			Interface: descriptor.SHM,
			Type:      ipc.Integer,
			Size:      []int{4, 8, 16}[rng.Intn(3)],
			Direction: dir,
		}
		if rng.Intn(6) == 0 {
			p.Interface = descriptor.Mailbox
		}
		if rng.Intn(8) == 0 {
			p.Type = ipc.Byte
		}
		if rng.Intn(30) == 0 {
			if dir == descriptor.Out {
				p.Version = []string{"1.0.0", "2.0.0"}[rng.Intn(2)]
			} else {
				p.Version = "[1.0.0,2.0.0)"
			}
		}
		return p
	}
	ports := func(dir descriptor.Direction, n int) []descriptor.Port {
		var ps []descriptor.Port
		seen := map[string]bool{}
		for len(ps) < n {
			p := port(dir)
			if !seen[p.Name] {
				seen[p.Name] = true
				ps = append(ps, p)
			}
		}
		return ps
	}

	n := 3 + rng.Intn(22)
	var descs []*descriptor.Component
	for _, i := range rng.Perm(n) {
		d := &descriptor.Component{
			Name:           fmt.Sprintf("m%02d", i),
			Kind:           descriptor.Periodic,
			Enabled:        rng.Intn(8) != 0,
			CPUUsage:       0.01,
			Implementation: "plan.Body",
			Periodic:       &descriptor.PeriodicSpec{FrequencyHz: 100, CPU: rng.Intn(2), Priority: 5},
			InPorts:        ports(descriptor.In, rng.Intn(3)),
			OutPorts:       ports(descriptor.Out, rng.Intn(3)),
		}
		if rng.Intn(15) == 0 {
			d.CPUUsage = 0.6
		}
		if len(d.InPorts) > 0 && rng.Intn(5) == 0 {
			d.Modes = []descriptor.Mode{{Name: "eco", CPUUsage: d.CPUUsage / 2,
				Drops: []string{d.InPorts[rng.Intn(len(d.InPorts))].Name}}}
		}
		descs = append(descs, d)
	}
	env := env2()
	for j := rng.Intn(5); j > 0; j-- {
		ep := ExtProvider{Origin: fmt.Sprintf("x%d", rng.Intn(3)), Port: port(descriptor.Out)}
		switch rng.Intn(3) {
		case 0:
			ep.Origin = descs[rng.Intn(len(descs))].Name
		case 1:
			ep.Origin, ep.Remote = fmt.Sprintf("r%d@n1", rng.Intn(3)), true
		}
		env.Providers = append(env.Providers, ep)
	}
	return descs, env
}

// TestCompileEdgesMatchesScan holds the indexed wiring-table compiler to
// the member × outport scan on 200 seeded random batches.
func TestCompileEdgesMatchesScan(t *testing.T) {
	var compiled, external, selfExcluded, selfProviders int
	for seed := int64(1); seed <= 200; seed++ {
		descs, env := edgeBatch(rand.New(rand.NewSource(seed)))
		p, err := Compile(descs, env)
		if err != nil {
			continue // a typed conflict rejects before any wiring
		}
		compiled++

		// The inputs Compile hands compileEdges.
		members := map[string]*descriptor.Component{}
		var names []string
		for _, d := range descs {
			members[d.Name] = d
			names = append(names, d.Name)
			for _, in := range d.InPorts {
				for _, out := range d.OutPorts {
					if keyOf(in) == keyOf(out) {
						selfProviders++
					}
				}
			}
		}
		sort.Strings(names)
		extLocal := map[portKey][]ExtProvider{}
		extRemote := map[portKey][]ExtProvider{}
		for _, ep := range env.Providers {
			k := keyOf(ep.Port)
			if ep.Remote {
				extRemote[k] = append(extRemote[k], ep)
			} else {
				extLocal[k] = append(extLocal[k], ep)
				if _, ok := members[ep.Origin]; ok {
					selfExcluded++
				}
			}
		}
		for _, eps := range extLocal {
			sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
		}
		for _, eps := range extRemote {
			sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
		}

		want := compileEdgesScan(members, names, extLocal, extRemote)
		if !reflect.DeepEqual(p.Edges, want) {
			t.Fatalf("seed %d: indexed edges differ from the scan:\ngot:  %+v\nwant: %+v", seed, p.Edges, want)
		}
		for _, e := range p.Edges {
			if e.External {
				external++
			}
		}
	}
	// The generator must reach the cases it exists for.
	if compiled < 150 || external == 0 || selfExcluded == 0 || selfProviders == 0 {
		t.Fatalf("weak coverage: compiled=%d external edges=%d member-named external providers=%d self-providers=%d",
			compiled, external, selfExcluded, selfProviders)
	}
}

// Package plan is the typed-port check of a descriptor batch: Beugnard
// et al.'s syntactic contract level — version ranges and structural
// datatypes — checked before anything is installed. Compile also builds
// a flat wiring table (provider→consumer edges resolved per mode ladder)
// for the console's plan command.
//
// A plan is a check, never something the runtime applies and never an
// admission verdict: admission belongs to the DRCR's resolving services,
// which the console's admit command consults directly.
// System.DeployBundle compiles a plan to reject typed port conflicts
// before anything is installed, and the cluster leader compiles one for
// the same check before shipping an evacuation batch.
//
// Compilation rejects impossible compositions early — reject-at-compile
// beats deny-at-runtime. A rejection is raised only for a *typed*
// conflict: some provider speaks the consumer's topic at a compatible
// size but every such candidate fails the version-range or structural
// datatype check, so the inport can never bind while those are the only
// speakers. A merely absent provider is not an error (the component
// waits, exactly like declarative services), and untyped size mismatches
// keep their legacy wait semantics.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/descriptor"
	"repro/internal/rtos/ipc"
)

// Env is the runtime state a plan is checked against.
type Env struct {
	// NumCPUs is the kernel's simulated CPU count.
	NumCPUs int
	// Providers lists every outport admitted outside the bundle — local
	// components and remote provisions — that could satisfy a bundle
	// inport.
	Providers []ExtProvider
}

// ExtProvider is one outport admitted outside the bundle.
type ExtProvider struct {
	Origin string // component name, or component@node for remote entries
	Remote bool
	Port   descriptor.Port
}

// Edge is one row of the flat wiring table: a consumer inport and the
// provider the runtime would bind it to (or "" when unbound).
type Edge struct {
	Consumer string
	Inport   string
	Provider string // plan member name or external origin; "" if unbound
	External bool
	// Modes lists the consumer's service modes that require this inport
	// (a mode's drops list exempts it).
	Modes []string
}

// Plan is a batch that passed the typed-port check.
type Plan struct {
	// Components in install (manifest resource) order.
	Components []*descriptor.Component
	// Edges is the wiring table, sorted by consumer then inport: the
	// provider each inport binds to once every enabled member is active.
	Edges []Edge
	// Fallback is non-empty when the batch cannot be checked as a whole
	// (a duplicate name, a CPU pin outside the kernel); it says why, and
	// the plan carries no edges.
	Fallback string
}

// PortIncompatibility is one typed port conflict: the exact port pair
// and why the provider cannot satisfy the consumer.
type PortIncompatibility struct {
	Provider     string // component name or external origin
	ProviderPort string
	Consumer     string
	ConsumerPort string
	Kind         string // "version" or "structure"
	Reason       string
}

func (e *PortIncompatibility) Error() string {
	return fmt.Sprintf("plan: %s.%s cannot satisfy %s.%s: %s (%s mismatch)",
		e.Provider, e.ProviderPort, e.Consumer, e.ConsumerPort, e.Reason, e.Kind)
}

// RejectError aggregates every typed conflict found at compile time.
type RejectError struct {
	Conflicts []*PortIncompatibility
}

func (e *RejectError) Error() string {
	if len(e.Conflicts) == 1 {
		return e.Conflicts[0].Error()
	}
	msgs := make([]string, len(e.Conflicts))
	for i, c := range e.Conflicts {
		msgs[i] = c.Error()
	}
	return fmt.Sprintf("plan: %d typed port conflicts: %s", len(e.Conflicts), strings.Join(msgs, "; "))
}

// portKey mirrors the runtime's topic identity: two ports with equal
// keys speak the same topic (§2.3) and differ at most in size and typed
// annotations.
type portKey struct {
	name  string
	iface descriptor.PortInterface
	typ   ipc.ElemType
}

func keyOf(p descriptor.Port) portKey { return portKey{p.Name, p.Interface, p.Type} }

// Compile checks a batch. A typed port conflict returns (*RejectError);
// a batch that cannot be checked as a whole compiles with Fallback set.
func Compile(descs []*descriptor.Component, env Env) (*Plan, error) {
	p := &Plan{Components: descs}
	members := map[string]*descriptor.Component{}
	var names []string
	for _, d := range descs {
		if _, dup := members[d.Name]; dup {
			p.Fallback = fmt.Sprintf("duplicate component name %q", d.Name)
			return p, nil
		}
		members[d.Name] = d
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, d := range descs {
		if cpu := d.CPU(); cpu < 0 || cpu >= env.NumCPUs {
			p.Fallback = fmt.Sprintf("component %q pinned to cpu%d but kernel has %d CPUs", d.Name, cpu, env.NumCPUs)
			return p, nil
		}
	}

	// Internal provider index: topic → enabled members' outports on it,
	// name-sorted (the runtime's provider choice order).
	byKey := map[portKey][]edgeCand{}
	for _, name := range names {
		if d := members[name]; d.Enabled {
			for _, out := range d.OutPorts {
				k := keyOf(out)
				byKey[k] = append(byKey[k], edgeCand{name, out, false})
			}
		}
	}

	extLocal := map[portKey][]ExtProvider{}
	extRemote := map[portKey][]ExtProvider{}
	for _, ep := range env.Providers {
		k := keyOf(ep.Port)
		if ep.Remote {
			extRemote[k] = append(extRemote[k], ep)
		} else {
			extLocal[k] = append(extLocal[k], ep)
		}
	}
	for _, eps := range extLocal {
		sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
	}
	for _, eps := range extRemote {
		sort.Slice(eps, func(i, j int) bool { return eps[i].Origin < eps[j].Origin })
	}

	// The typed-conflict check, for every enabled member inport that no
	// external provider satisfies.
	var reject RejectError
	for _, name := range names {
		d := members[name]
		if !d.Enabled {
			continue
		}
		for _, in := range d.InPorts {
			k := keyOf(in)
			if extSatisfies(name, in, extLocal[k], extRemote[k]) {
				continue
			}
			// Candidates that match the topic at a compatible size but
			// all fail the typed layer.
			var firstTyped *PortIncompatibility
			compatible := false
			consider := func(origin string, out descriptor.Port) {
				if compatible || origin == name {
					return
				}
				if out.Direction != descriptor.Out || out.Size < in.Size {
					return // untyped size mismatches keep wait semantics
				}
				if why := out.ExplainTypedMismatch(in); why != "" {
					if firstTyped == nil {
						kind := "structure"
						if strings.Contains(why, "version") {
							kind = "version"
						}
						firstTyped = &PortIncompatibility{
							Provider: origin, ProviderPort: out.Name,
							Consumer: name, ConsumerPort: in.Name,
							Kind: kind, Reason: why,
						}
					}
					return
				}
				compatible = true
			}
			for _, c := range byKey[k] {
				consider(c.origin, c.port)
			}
			for _, ep := range extLocal[k] {
				consider(ep.Origin, ep.Port)
			}
			for _, ep := range extRemote[k] {
				consider(ep.Origin, ep.Port)
			}
			if !compatible && firstTyped != nil {
				reject.Conflicts = append(reject.Conflicts, firstTyped)
			}
		}
	}
	if len(reject.Conflicts) > 0 {
		return nil, &reject
	}
	p.compileEdges(members, names, byKey, extLocal, extRemote)
	return p, nil
}

// extSatisfies reports whether an external provider — a local one other
// than the member itself, or any remote provision — satisfies inport in
// of member name.
func extSatisfies(name string, in descriptor.Port, local, remote []ExtProvider) bool {
	for _, ep := range local {
		if ep.Origin != name && ep.Port.CanSatisfy(in) {
			return true
		}
	}
	for _, ep := range remote {
		if ep.Port.CanSatisfy(in) {
			return true
		}
	}
	return false
}

// edgeCand is one outport a consumer inport could bind to.
type edgeCand struct {
	origin string
	port   descriptor.Port
	ext    bool
}

// compileEdges fills the wiring table: for every enabled member inport,
// the provider the runtime binds once every enabled member is active —
// plan members and already-admitted local components in one name-sorted
// order, then remote provisions in origin order. byKey is Compile's
// topic index of the enabled members' outports.
func (p *Plan) compileEdges(members map[string]*descriptor.Component, names []string,
	byKey map[portKey][]edgeCand, extLocal, extRemote map[portKey][]ExtProvider) {
	var cands []edgeCand
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
			// Merge plan members and external local providers in name
			// order, mirroring the admitted-set scan.
			cands = cands[:0]
			for _, c := range byKey[k] {
				if c.origin != name {
					cands = append(cands, c)
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
			p.Edges = append(p.Edges, e)
		}
	}
	sort.Slice(p.Edges, func(i, j int) bool {
		if p.Edges[i].Consumer != p.Edges[j].Consumer {
			return p.Edges[i].Consumer < p.Edges[j].Consumer
		}
		return p.Edges[i].Inport < p.Edges[j].Inport
	})
}

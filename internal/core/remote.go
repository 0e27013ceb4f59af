package core

// Remote port federation: the DRCR's view of port topics provided or
// consumed by components on *other* nodes of a cluster (package cluster).
//
// A remote provider entry says "an admitted component on another node
// exports a compatible outport on this topic; its data is replicated into
// this kernel's IPC registry by the federation layer". Both resolve
// engines consult the same index, after the local admitted set: a local
// provider always wins (no network hop), remote origins are walked in
// sorted order, so provider choice stays deterministic and
// engine-independent. A remote consumer entry is the reverse edge — a
// component here is known to feed components elsewhere — kept so the
// federation layer and the console can introspect export demand; it does
// not affect resolution (outports need no consumers to activate).
//
// Entries are installed and withdrawn by provision control messages
// delivered over the simulated network, so they propagate with real
// latency and are subject to partitions: a consumer node keeps a stale
// remote provider entry until the unprovision message arrives (or the
// failure detector declares the origin node lost).

import (
	"fmt"
	"sort"

	"repro/internal/descriptor"
)

// AddRemoteProvider registers origin (conventionally "component@nodeN")
// as a remote provider of the topic declared by out, an outport as
// declared at the providing component. Waiting consumers of the topic
// are staged for re-resolution.
func (d *DRCR) AddRemoteProvider(out descriptor.Port, origin string) error {
	if origin == "" || out.Direction != descriptor.Out {
		return fmt.Errorf("core: remote provider needs an origin and an outport, got %q/%v", origin, out.Direction)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	key := keyOf(out)
	if d.remoteProv == nil {
		d.remoteProv = map[portKey][]portProv{}
	}
	d.remoteProv[key] = insertProv(d.remoteProv[key], portProv{name: origin, port: out})
	// A new provider can satisfy waiting consumers; it can also change the
	// provider choice of nothing that is already admitted (local providers
	// win and rebinding is not done in place), so staging the topic's
	// waiting consumers is exactly the dirty set.
	for _, cn := range d.consIndex[key] {
		d.enqueueActLocked(cn)
	}
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

// RemoveRemoteProvider withdraws a remote provision. Consumers bound to
// it cascade through resolution exactly like consumers of a departed
// local provider.
func (d *DRCR) RemoveRemoteProvider(out descriptor.Port, origin string) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	key := keyOf(out)
	es := removeProv(d.remoteProv[key], origin)
	if len(es) == 0 {
		delete(d.remoteProv, key)
	} else {
		d.remoteProv[key] = es
	}
	for _, cn := range d.consIndex[key] {
		d.enqueueDeactLocked(cn)
	}
	d.mu.Unlock()
	d.resolveDelta()
	return nil
}

// AddRemoteConsumer records that origin (a component on another node)
// consumes the given topic from this node — the export-demand edge the
// federation layer forwards data for.
func (d *DRCR) AddRemoteConsumer(in descriptor.Port, origin string) error {
	if origin == "" {
		return fmt.Errorf("core: remote consumer needs an origin")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remoteCons == nil {
		d.remoteCons = map[portKey][]string{}
	}
	key := keyOf(in)
	d.remoteCons[key] = insertName(d.remoteCons[key], origin)
	return nil
}

// RemoveRemoteConsumer withdraws an export-demand edge.
func (d *DRCR) RemoveRemoteConsumer(in descriptor.Port, origin string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := keyOf(in)
	ns := removeName(d.remoteCons[key], origin)
	if len(ns) == 0 {
		delete(d.remoteCons, key)
	} else {
		d.remoteCons[key] = ns
	}
	return nil
}

// RemoteProvision is one row of the read-only remote index snapshot.
type RemoteProvision struct {
	Topic  string
	Origin string
}

// RemoteProviders lists the remote provider index sorted by topic then
// origin — a deterministic walk safe to feed into digests and tables.
func (d *DRCR) RemoteProviders() []RemoteProvision {
	d.mu.Lock()
	defer d.mu.Unlock()
	return snapshotRemoteLocked(d.remoteProv)
}

// RemoteConsumers lists the remote consumer index sorted by topic then
// origin.
func (d *DRCR) RemoteConsumers() []RemoteProvision {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]RemoteProvision, 0, len(d.remoteCons))
	for key, origins := range d.remoteCons {
		for _, o := range origins {
			out = append(out, RemoteProvision{Topic: key.name, Origin: o})
		}
	}
	sortProvisions(out)
	return out
}

func snapshotRemoteLocked(m map[portKey][]portProv) []RemoteProvision {
	out := make([]RemoteProvision, 0, len(m))
	for key, es := range m {
		for _, e := range es {
			out = append(out, RemoteProvision{Topic: key.name, Origin: e.name})
		}
	}
	sortProvisions(out)
	return out
}

func sortProvisions(ps []RemoteProvision) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Topic != ps[j].Topic {
			return ps[i].Topic < ps[j].Topic
		}
		return ps[i].Origin < ps[j].Origin
	})
}

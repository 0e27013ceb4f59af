package core

// Remote port federation: the DRCR's view of port topics provided by
// components on *other* nodes of a cluster (package cluster).
//
// A remote provider entry says "an admitted component on another node
// exports a compatible outport on this topic; its data is replicated into
// this kernel's IPC registry by the federation layer". Both resolve
// engines consult the same index, after the local admitted set: a local
// provider always wins (no network hop), remote origins are walked in
// sorted order, so provider choice stays deterministic and
// engine-independent.
//
// Entries are installed and withdrawn by provision control messages
// delivered over the simulated network, so they propagate with real
// latency and are subject to partitions: a consumer node keeps a stale
// remote provider entry until the unprovision message arrives (or the
// failure detector declares the origin node lost).

import (
	"fmt"

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

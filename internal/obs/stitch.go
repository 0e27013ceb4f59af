// Cross-node trace stitching: spans get a (node, id) identity, planes
// record remote parents for spans whose cause crossed the simulated
// network, and StitchWhy/StitchDigest reconstruct and pin reaction
// trees that span node boundaries (a revocation on node A arriving as
// a control message and suspending a consumer on node C).
//
// The stitch protocol piggybacks on net.Message.Cause: the sender folds
// its local span ID into the message, the cluster delivery path emits a
// Recv span chained to it, and — via an ambient remote cause scoped
// around the node-local effect — every span the effect emits on the
// destination node's plane is linked back to the Recv span with an
// explicit (node, id) reference. Remote references live outside the
// span struct (a side table keyed by span ID), so single-node digests,
// ring layout, and the allocation-free emit path are untouched.

package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

// Ref names a span on a specific plane: the (node, id) federated span
// identity. The zero Ref means "no remote cause".
type Ref struct {
	// Node is the plane name (Options.Node): "cluster", "n0", "n1", ...
	Node string
	// ID is the span's dense ID on that plane.
	ID SpanID
}

// IsZero reports whether the reference is empty.
func (r Ref) IsZero() bool { return r.ID == 0 }

// SetRemoteCause installs the ambient remote cause: until the matching
// ClearRemoteCause, every span emitted without a local cause is linked
// to r in the remote-parent table. The cluster delivery path scopes it
// around node-local effects of an arrived message.
func (p *Plane) SetRemoteCause(r Ref) {
	if !p.enabled() {
		return
	}
	p.rcause = r
}

// ClearRemoteCause removes the ambient remote cause.
func (p *Plane) ClearRemoteCause() {
	if p == nil {
		return
	}
	p.rcause = Ref{}
}

func (p *Plane) linkRemote(id SpanID, r Ref) {
	if p.remote == nil {
		p.remote = map[SpanID]Ref{}
	}
	// Prune references to spans long evicted from the ring, so the side
	// table stays bounded no matter how long the run is.
	if SpanID(len(p.remote)) > 2*p.capacity {
		for old := range p.remote {
			if !p.retained(old) {
				delete(p.remote, old)
			}
		}
	}
	p.remote[id] = r
}

// RemoteCause reports the remote parent recorded for local span id.
func (p *Plane) RemoteCause(id SpanID) (Ref, bool) {
	if p == nil {
		return Ref{}, false
	}
	r, ok := p.remote[id]
	return r, ok
}

// StitchedSpan is one element of a cross-node causal chain: a span plus
// the node (plane) it lives on.
type StitchedSpan struct {
	Node string
	Span Span
}

// stitchMax bounds a stitched chain, like Why's local bound.
const stitchMax = 128

// StitchWhy reconstructs the causal chain ending at component's latest
// span on the named plane, newest first, following local Cause edges
// and hopping planes through remote-parent references. The chain stops
// at a root span, an evicted span, or an unknown plane.
func StitchWhy(planes map[string]*Plane, node, component string) []StitchedSpan {
	p := planes[node]
	if p == nil {
		return nil
	}
	s, ok := p.Last(component)
	if !ok {
		return nil
	}
	return stitchChain(planes, node, s)
}

// stitchChain walks causes starting from span s on plane node.
func stitchChain(planes map[string]*Plane, node string, s Span) []StitchedSpan {
	p := planes[node]
	chain := []StitchedSpan{{Node: node, Span: s}}
	for len(chain) < stitchMax {
		if s.Cause != 0 {
			c, ok := p.Span(s.Cause)
			if !ok {
				break
			}
			chain = append(chain, StitchedSpan{Node: node, Span: c})
			s = c
			continue
		}
		// Root locally — hop the network if a remote parent is recorded.
		ref, ok := p.RemoteCause(s.ID)
		if !ok {
			break
		}
		rp := planes[ref.Node]
		if rp == nil {
			break
		}
		c, ok := rp.Span(ref.ID)
		if !ok {
			break
		}
		node, p, s = ref.Node, rp, c
		chain = append(chain, StitchedSpan{Node: node, Span: c})
	}
	return chain
}

// StitchDigest folds the stitched Why-chains of the given (node,
// component) roots — in the order given, which the caller must keep
// canonical — into one hex SHA-256. Each chain element is rendered
// without span IDs or cause values: the chain structure itself carries
// causality, and IDs are local to each node's plane.
func StitchDigest(planes map[string]*Plane, roots []StitchRoot) string {
	h := sha256.New()
	var scratch []byte
	for _, r := range roots {
		scratch = scratch[:0]
		scratch = append(scratch, r.Node...)
		scratch = append(scratch, '/')
		scratch = append(scratch, r.Component...)
		scratch = append(scratch, ":\n"...)
		h.Write(scratch)
		for _, e := range StitchWhy(planes, r.Node, r.Component) {
			writeStitched(h, &scratch, e)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// StitchRoot names a stitch root: a component on a node's plane.
type StitchRoot struct {
	Node      string
	Component string
}

// writeStitched renders one chain element as its ID-free span line,
// prefixed by its node.
func writeStitched(h hash.Hash, scratch *[]byte, e StitchedSpan) {
	b := append((*scratch)[:0], ' ')
	b = append(b, e.Node...)
	b = append(b, '|')
	b = appendSpanLine(b, e.Span)
	h.Write(b)
	*scratch = b
}

package obs

import (
	"strings"
	"testing"
	"time"
)

// A two-plane federation: the control plane sends a provision, the node
// plane records the delivery effects under an ambient remote cause, and
// StitchWhy walks the chain back across the hop.
func buildStitchedPair() (ctrl, node *Plane) {
	ctrl = NewPlane(Options{Node: "cluster"})
	node = NewPlane(Options{Node: "n1"})
	send := ctrl.Send(at(0), "calc", "n0", "n1", "provision on feed", 0)
	recv := ctrl.Recv(at(time.Millisecond), "calc", "n0", "n1", "provision on feed", send)
	node.SetRemoteCause(Ref{Node: "cluster", ID: recv})
	dep := node.Deploy(at(time.Millisecond), "calc", "UNSATISFIED", "provisioned")
	node.Transition(at(2*time.Millisecond), "calc", "UNSATISFIED", "ACTIVE", "admitted", dep)
	node.ClearRemoteCause()
	return ctrl, node
}

func TestStitchWhyCrossesNodeBoundary(t *testing.T) {
	ctrl, node := buildStitchedPair()
	planes := map[string]*Plane{"cluster": ctrl, "n1": node}
	chain := StitchWhy(planes, "n1", "calc")
	if len(chain) != 4 {
		t.Fatalf("stitched chain has %d hops, want 4: %+v", len(chain), chain)
	}
	wantNodes := []string{"n1", "n1", "cluster", "cluster"}
	wantKinds := []Kind{KindTransition, KindDeploy, KindRecv, KindSend}
	for i, s := range chain {
		if s.Node != wantNodes[i] || s.Span.Kind != wantKinds[i] {
			t.Fatalf("hop %d = %s/%v, want %s/%v", i, s.Node, s.Span.Kind, wantNodes[i], wantKinds[i])
		}
	}
}

func TestStitchWhyWithoutRemoteLinkStaysLocal(t *testing.T) {
	ctrl, node := buildStitchedPair()
	// A span emitted outside any remote-cause scope must not stitch.
	node.Deploy(at(5*time.Millisecond), "disp", "UNSATISFIED", "local deploy")
	chain := StitchWhy(map[string]*Plane{"cluster": ctrl, "n1": node}, "n1", "disp")
	if len(chain) != 1 || chain[0].Node != "n1" {
		t.Fatalf("local chain crossed a boundary: %+v", chain)
	}
	// Unknown start plane and unknown component both come back empty.
	if got := StitchWhy(map[string]*Plane{"n1": node}, "n9", "calc"); got != nil {
		t.Fatalf("unknown plane produced a chain: %+v", got)
	}
	if got := StitchWhy(map[string]*Plane{"n1": node}, "n1", "ghost"); got != nil {
		t.Fatalf("unknown component produced a chain: %+v", got)
	}
}

func TestStitchDigestDeterministicAndIDFree(t *testing.T) {
	ctrl1, node1 := buildStitchedPair()
	d1 := StitchDigest(map[string]*Plane{"cluster": ctrl1, "n1": node1},
		[]StitchRoot{{Node: "n1", Component: "calc"}})

	// Same history, but the second federation burns span IDs first: the
	// render is ID-free, so the digest must not move.
	ctrl2 := NewPlane(Options{Node: "cluster"})
	node2 := NewPlane(Options{Node: "n1"})
	for i := 0; i < 17; i++ {
		ctrl2.ResolveRound(at(0), 1, 1) // consumes IDs, digest-excluded
	}
	send := ctrl2.Send(at(0), "calc", "n0", "n1", "provision on feed", 0)
	recv := ctrl2.Recv(at(time.Millisecond), "calc", "n0", "n1", "provision on feed", send)
	node2.SetRemoteCause(Ref{Node: "cluster", ID: recv})
	dep := node2.Deploy(at(time.Millisecond), "calc", "UNSATISFIED", "provisioned")
	node2.Transition(at(2*time.Millisecond), "calc", "UNSATISFIED", "ACTIVE", "admitted", dep)
	node2.ClearRemoteCause()
	d2 := StitchDigest(map[string]*Plane{"cluster": ctrl2, "n1": node2},
		[]StitchRoot{{Node: "n1", Component: "calc"}})
	if d1 != d2 {
		t.Fatalf("ID offsets moved the stitched digest:\n%s\n%s", d1, d2)
	}

	// A broken remote link must move it.
	ctrl3, node3 := buildStitchedPair()
	s, _ := node3.Last("calc")
	_ = s
	node3.Deploy(at(time.Millisecond), "other", "UNSATISFIED", "noise")
	d3 := StitchDigest(map[string]*Plane{"cluster": ctrl3, "n1": node3},
		[]StitchRoot{{Node: "n1", Component: "calc"}})
	if d3 != d1 {
		t.Fatalf("unrelated noise moved the stitched digest")
	}
	dMissing := StitchDigest(map[string]*Plane{"n1": node3},
		[]StitchRoot{{Node: "n1", Component: "calc"}})
	if dMissing == d1 {
		t.Fatal("dropping the control plane did not move the stitched digest")
	}
}

func TestRemoteCauseScopingAndPruning(t *testing.T) {
	p := NewPlane(Options{Node: "n0", Capacity: 8})
	p.SetRemoteCause(Ref{Node: "cluster", ID: 7})
	id := p.Deploy(at(0), "calc", "UNSATISFIED", "")
	if r, ok := p.RemoteCause(id); !ok || r.Node != "cluster" || r.ID != 7 {
		t.Fatalf("RemoteCause(%d) = %+v, %v", id, r, ok)
	}
	// A span with a local cause must not be remote-linked.
	id2 := p.Transition(at(0), "calc", "A", "B", "", id)
	if _, ok := p.RemoteCause(id2); ok {
		t.Fatal("span with a local cause was remote-linked")
	}
	p.ClearRemoteCause()
	id3 := p.Deploy(at(0), "disp", "UNSATISFIED", "")
	if _, ok := p.RemoteCause(id3); ok {
		t.Fatal("remote cause leaked past ClearRemoteCause")
	}
	// The side table prunes entries for long-evicted spans.
	p.SetRemoteCause(Ref{Node: "cluster", ID: 9})
	for i := 0; i < 200; i++ {
		p.Deploy(at(0), "x", "U", "")
	}
	p.ClearRemoteCause()
	if n := len(p.remote); n > 2*8 {
		t.Fatalf("remote table grew unbounded: %d entries for an 8-span ring", n)
	}
	if _, ok := p.RemoteCause(id); ok {
		t.Fatal("evicted span still remote-linked after pruning")
	}
}

func TestStitchWhyBoundsHops(t *testing.T) {
	// Two planes whose remote links point at each other would loop
	// forever without the hop bound.
	a := NewPlane(Options{Node: "a"})
	b := NewPlane(Options{Node: "b"})
	ida := a.Deploy(at(0), "calc", "U", "")
	idb := b.Deploy(at(0), "calc", "U", "")
	a.linkRemote(ida, Ref{Node: "b", ID: idb})
	b.linkRemote(idb, Ref{Node: "a", ID: ida})
	chain := StitchWhy(map[string]*Plane{"a": a, "b": b}, "a", "calc")
	if len(chain) == 0 || len(chain) > stitchMax {
		t.Fatalf("cyclic stitch produced %d hops (max %d)", len(chain), stitchMax)
	}
}

func TestStitchDigestRendersHeaderPerRoot(t *testing.T) {
	ctrl, node := buildStitchedPair()
	planes := map[string]*Plane{"cluster": ctrl, "n1": node}
	d1 := StitchDigest(planes, []StitchRoot{{Node: "n1", Component: "calc"}})
	d2 := StitchDigest(planes, []StitchRoot{
		{Node: "n1", Component: "calc"}, {Node: "n1", Component: "calc"},
	})
	if d1 == d2 {
		t.Fatal("root multiplicity not reflected in the stitched digest")
	}
	if len(d1) != 64 || strings.ToLower(d1) != d1 {
		t.Fatalf("stitched digest is not lowercase hex sha256: %q", d1)
	}
}

package cluster

// Barrier-staged federation traffic: load reports, provision exchange,
// port-data replication, and the delivery dispatcher. Everything here
// runs inside atBarrier, single-threaded, in node-id order.

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/rtos/ipc"
	"repro/internal/sim"
)

// admittedComps snapshots a node's admitted components (ACTIVE or
// SUSPENDED — the states whose contracts count) sorted by name.
func admittedComps(n *Node) []core.Info {
	infos := n.drcr.Components()
	out := infos[:0]
	for _, info := range infos {
		if info.State == core.Active || info.State == core.Suspended {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// localReport builds a node's own load summary.
func localReport(b sim.Time, n *Node) *report {
	r := &report{at: b, comps: map[string]int{}}
	view := n.drcr.GlobalView()
	for cpu := 0; cpu < view.NumCPUs; cpu++ {
		r.load += view.Load(cpu)
	}
	for _, info := range admittedComps(n) {
		r.admitted++
		r.comps[info.Name] = info.Mode
	}
	return r
}

// encodeReport renders the component→mode map as "a=0,b=1" (sorted).
func encodeReport(r *report) string {
	names := make([]string, 0, len(r.comps))
	for name := range r.comps {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, name := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(name)
		sb.WriteByte('=')
		sb.WriteString(strconv.Itoa(r.comps[name]))
	}
	return sb.String()
}

func decodeReport(at sim.Time, m net.Message) *report {
	r := &report{at: at, comps: map[string]int{}}
	if len(m.Payload) >= 2 {
		r.load = float64(m.Payload[0]) / 1e6
		r.admitted = int(m.Payload[1])
	}
	if m.Note != "" {
		for _, pair := range strings.Split(m.Note, ",") {
			if eq := strings.IndexByte(pair, '='); eq > 0 {
				mode, _ := strconv.Atoi(pair[eq+1:])
				r.comps[pair[:eq]] = mode
			}
		}
	}
	return r
}

// stageReport refreshes the node's own summary and, when someone else
// leads, ships it to them; a leader's own entry never crosses the wire.
func (c *Cluster) stageReport(b sim.Time, n *Node) {
	r := localReport(b, n)
	if n.leader == n.id {
		n.reports[n.id] = r
		return
	}
	c.net.Send(b, net.Message{
		Src: n.id, Dst: n.leader, Kind: net.Report,
		Note:    encodeReport(r),
		Payload: []int64{int64(r.load * 1e6), int64(r.admitted)},
	})
}

// stageProvisions diffs the node's current export set (outports of
// admitted components) against what peers were last told, and sends
// provision on/off messages for the delta. Messages carry the port
// shape, so the receiver can index and replicate without the descriptor.
func (c *Cluster) stageProvisions(b sim.Time, n *Node) {
	current := map[expKey]descriptor.Port{}
	for _, info := range admittedComps(n) {
		pl := c.placements[info.Name]
		if pl == nil {
			continue // not cluster-managed (node-local deployment)
		}
		origin := info.Name + "@" + n.Name()
		for _, out := range pl.desc.OutPorts {
			current[expKey(out.Name+"|"+origin)] = out
		}
	}
	var added, removed []expKey
	for key := range current {
		if _, ok := n.exported[key]; !ok {
			added = append(added, key)
		}
	}
	for key := range n.exported {
		if _, ok := current[key]; !ok {
			removed = append(removed, key)
		}
	}
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	for _, key := range added {
		n.exported[key] = current[key]
		c.broadcastProvision(b, n, key, current[key], true)
	}
	for _, key := range removed {
		port := n.exported[key]
		delete(n.exported, key)
		c.broadcastProvision(b, n, key, port, false)
	}
}

// reprovisionTo re-advertises every current export to one peer — used
// when a peer comes back from the dead, since it dropped this node's
// provisions on loss.
func (c *Cluster) reprovisionTo(b sim.Time, n *Node, peer int) {
	keys := make([]expKey, 0, len(n.exported))
	for key := range n.exported {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		c.sendProvision(b, n, peer, key, n.exported[key], true)
	}
}

func (c *Cluster) broadcastProvision(b sim.Time, n *Node, key expKey, port descriptor.Port, on bool) {
	for _, peer := range c.nodes {
		if peer.id != n.id {
			c.sendProvision(b, n, peer.id, key, port, on)
		}
	}
}

func (c *Cluster) sendProvision(b sim.Time, n *Node, dst int, key expKey, port descriptor.Port, on bool) {
	verb := "on"
	if !on {
		verb = "off"
	}
	_, origin, _ := strings.Cut(string(key), "|")
	span := c.plane.Send(b, origin, n.Name(), nodeName(dst), "provision "+verb+" "+port.Name, 0)
	note := verb + ":" + string(port.Interface)
	// Typed ports append their contract attributes; untyped ports keep
	// the legacy two-field note byte for byte. The datatype rides last
	// because its canonical form may itself contain colons.
	if port.Version != "" || port.DataType != "" {
		note += ":" + port.Version + ":" + port.DataType
	}
	c.net.Send(b, net.Message{
		Src: n.id, Dst: dst, Kind: net.Provision,
		Topic:   string(key),
		Note:    note,
		Payload: []int64{int64(port.Type), int64(port.Size)},
		Cause:   uint64(span),
	})
}

// stageData replicates changed SHM outport contents to every peer. Only
// topics this node exports are scanned; a generation check keeps quiet
// ports off the wire. Mailbox ports do not replicate (remote releases
// travel as Trigger messages instead).
func (c *Cluster) stageData(b sim.Time, n *Node) {
	topics := map[string]bool{}
	for key, port := range n.exported {
		if topic, _, ok := strings.Cut(string(key), "|"); ok && port.Interface == descriptor.SHM {
			topics[topic] = true
		}
	}
	names := make([]string, 0, len(topics))
	for t := range topics {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, topic := range names {
		shm, err := n.kernel.IPC().SHM(topic)
		if err != nil {
			continue
		}
		gen := shm.Generation()
		if gen == n.lastGen[topic] {
			continue
		}
		n.lastGen[topic] = gen
		data := shm.ReadAll()
		for _, peer := range c.nodes {
			if peer.id != n.id {
				c.net.Send(b, net.Message{
					Src: n.id, Dst: peer.id, Kind: net.Data,
					Topic: topic, Payload: data,
				})
			}
		}
	}
}

// deliver applies one arrived message on its destination node.
func (c *Cluster) deliver(b sim.Time, m net.Message) {
	n := c.nodes[m.Dst]
	switch m.Kind {
	case net.Heartbeat:
		n.lastHB[m.Src] = b
	case net.Report:
		n.reports[m.Src] = decodeReport(b, m)
	case net.Provision:
		c.deliverProvision(b, n, m)
	case net.Data:
		c.deliverData(n, m)
	case net.Trigger:
		n.kernel.TriggerAsync(m.Topic)
	case net.Control:
		c.deliverControl(b, n, m)
	}
}

// deliverProvision installs or withdraws a remote provision, managing
// the SHM replica the remote topic's data lands in. Duplicated messages
// (the network may duplicate) are absorbed by the installed set.
func (c *Cluster) deliverProvision(b sim.Time, n *Node, m net.Message) {
	key := expKey(m.Topic)
	topic, origin, ok := strings.Cut(m.Topic, "|")
	parts := strings.SplitN(m.Note, ":", 4)
	if !ok || len(parts) < 2 || len(m.Payload) < 2 {
		return
	}
	verb, iface := parts[0], parts[1]
	port := descriptor.Port{
		Name:      topic,
		Interface: descriptor.PortInterface(iface),
		Type:      ipc.ElemType(m.Payload[0]),
		Size:      int(m.Payload[1]),
		Direction: descriptor.Out,
	}
	if len(parts) == 4 {
		port.Version, port.DataType = parts[2], parts[3]
	}
	switch verb {
	case "on":
		if _, dup := n.installed[key]; dup {
			return
		}
		n.installed[key] = port
		recv := c.plane.Recv(b, origin, nodeName(m.Src), n.Name(), "provision on "+topic, obs.SpanID(m.Cause))
		// Node-local effects of the arrival chain back to the cluster
		// Recv span through the stitch table (cross-node Why).
		n.plane.SetRemoteCause(obs.Ref{Node: "cluster", ID: recv})
		defer n.plane.ClearRemoteCause()
		if port.Interface == descriptor.SHM {
			if n.replicas[topic] == 0 {
				// Replica only if no local transport already carries the
				// topic (a local provider's SHM always wins).
				if _, err := n.kernel.IPC().SHM(topic); err != nil {
					if _, err := n.kernel.IPC().CreateSHM(topic, port.Type, port.Size); err == nil {
						n.replicas[topic] = 1
					}
				}
			} else {
				n.replicas[topic]++
			}
		}
		_ = n.drcr.AddRemoteProvider(port, origin)
	case "off":
		c.uninstallProvision(b, n, key, nodeName(m.Src), obs.SpanID(m.Cause))
	}
}

// uninstallProvision withdraws one installed remote provision and drops
// the SHM replica when its last provider goes.
func (c *Cluster) uninstallProvision(b sim.Time, n *Node, key expKey, fromNode string, cause obs.SpanID) {
	port, ok := n.installed[key]
	if !ok {
		return
	}
	delete(n.installed, key)
	topic, origin, _ := strings.Cut(string(key), "|")
	recv := c.plane.Recv(b, origin, fromNode, n.Name(), "provision off "+topic, cause)
	n.plane.SetRemoteCause(obs.Ref{Node: "cluster", ID: recv})
	defer n.plane.ClearRemoteCause()
	if port.Interface == descriptor.SHM && n.replicas[topic] > 0 {
		n.replicas[topic]--
		if n.replicas[topic] == 0 {
			delete(n.replicas, topic)
			_ = n.kernel.IPC().DeleteSHM(topic)
		}
	}
	_ = n.drcr.RemoveRemoteProvider(port, origin)
}

// deliverData lands replicated port data in the topic's replica. Nodes
// with a live local provider ignore it (local data wins).
func (c *Cluster) deliverData(n *Node, m net.Message) {
	if n.replicas[m.Topic] == 0 {
		return
	}
	shm, err := n.kernel.IPC().SHM(m.Topic)
	if err != nil {
		return
	}
	data := m.Payload
	if max := shm.Len(); len(data) > max {
		data = data[:max]
	}
	_ = shm.WriteAll(data)
}

// deliverControl executes a leader command on this node. The node-local
// effect runs under an ambient remote cause naming the cluster Recv
// span, so the destination plane's spans stitch back across the network
// hop to the leader's decision.
func (c *Cluster) deliverControl(b sim.Time, n *Node, m net.Message) {
	recv := c.plane.Recv(b, m.Topic, nodeName(m.Src), n.Name(), m.Note, obs.SpanID(m.Cause))
	n.plane.SetRemoteCause(obs.Ref{Node: "cluster", ID: recv})
	defer n.plane.ClearRemoteCause()
	verb, detail := m.Note, ""
	if i := strings.Index(m.Note, ": "); i >= 0 {
		verb, detail = m.Note[:i], m.Note[i+2:]
	}
	switch verb {
	case "revoke":
		// Propagation latency: leader send instant → applied here.
		c.plane.RecordLatency(obs.LatRevoke, int64(b.Sub(m.SentAt)))
		reason := "cluster revocation"
		if detail != "" {
			reason = "cluster revocation: " + detail
		}
		_ = n.drcr.RevokeBudget(m.Topic, reason)
	case "restore":
		_ = n.drcr.RestoreBudget(m.Topic)
	case "migrate-add":
		if pl := c.placements[m.Topic]; pl != nil {
			if _, deployed := n.drcr.Component(m.Topic); !deployed {
				_ = n.drcr.Deploy(pl.desc)
			}
		}
	case "migrate-plan":
		// A batched evacuation: the topic names the batch, the shared
		// catalog still holds the descriptors, and the shared plan cache
		// holds the plan the leader compiled before sending.
		var descs []*descriptor.Component
		for _, name := range strings.Split(m.Topic, ",") {
			pl := c.placements[name]
			if pl == nil {
				continue
			}
			if _, deployed := n.drcr.Component(name); deployed {
				continue
			}
			descs = append(descs, pl.desc)
		}
		if len(descs) > 0 {
			n.drcr.DeployAll(descs)
		}
	case "migrate-rm":
		_ = n.drcr.Remove(m.Topic)
	}
}

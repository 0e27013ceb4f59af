// Package console implements a line-oriented command interpreter over a
// DRCom system — the analogue of the Equinox console session the paper's
// prototype ran in. It drives deployment, lifecycle operations, simulated
// time, and diagnostics (component table, latency rows, event timeline,
// scheduler Gantt) from a script or interactive stream.
package console

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	drcom "repro"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/descriptor"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rtos"
)

// Console interprets commands against one System, or — in cluster mode —
// against a federation of nodes (see NewCluster).
type Console struct {
	sys    *drcom.System
	cl     *cluster.Cluster
	out    io.Writer
	tracer *rtos.Tracer
	// ReadFile is stubbed in tests; defaults to os.ReadFile.
	ReadFile func(string) ([]byte, error)
}

// New builds a console writing responses to out.
func New(sys *drcom.System, out io.Writer) *Console {
	return &Console{sys: sys, out: out, ReadFile: os.ReadFile}
}

// NewCluster builds a console driving a federated cluster instead of a
// single system. run/deploy/remove route through the cluster's leader;
// nodes, links and migrate expose the federation; single-node
// diagnostics (spans, gantt, …) are unavailable.
func NewCluster(cl *cluster.Cluster, out io.Writer) *Console {
	return &Console{cl: cl, out: out, ReadFile: os.ReadFile}
}

// Run interprets commands from in until EOF or the quit command. Blank
// lines and #-comments are skipped. Errors are reported to the output
// stream; they do not stop the session.
func (c *Console) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if quit := c.Exec(line); quit {
			return nil
		}
	}
	return sc.Err()
}

// noArgCommands take no arguments; Exec rejects a line that gives any.
var noArgCommands = map[string]bool{
	"modes": true, "list": true, "lb": true, "ss": true, "events": true, "metrics": true,
	"timeline": true, "latency": true, "view": true, "nodes": true, "links": true,
}

// Exec interprets one command line; it reports whether the session should
// end.
func (c *Console) Exec(line string) (quit bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	cmd, args := fields[0], fields[1:]
	var err error
	if c.sys == nil {
		switch cmd {
		case "help", "quit", "exit", "run", "deploy", "remove", "nodes", "links", "migrate",
			"spans", "why", "watch", "metrics", "flightrec", "admit":
		default:
			fmt.Fprintf(c.out, "error: %q needs a single-node system; this console drives a cluster (try nodes, links, migrate)\n", cmd)
			return false
		}
	}
	if noArgCommands[cmd] && len(args) > 0 {
		fmt.Fprintf(c.out, "error: %s takes no arguments\n", cmd)
		return false
	}
	switch cmd {
	case "help":
		c.printHelp()
	case "quit", "exit":
		return true
	case "deploy":
		err = c.deploy(args)
	case "plan":
		err = c.plan(args)
	case "remove", "enable", "disable", "suspend", "resume":
		err = c.lifecycle(cmd, args)
	case "run":
		err = c.run(args)
	case "mode":
		err = c.mode(args)
	case "modes":
		c.modes()
	case "downgrade":
		err = c.downgrade(args)
	case "promote":
		err = c.promote(args)
	case "admit":
		err = c.admit(args)
	case "list", "lb", "ss":
		c.list()
	case "events":
		c.events()
	case "spans":
		err = c.spans(args)
	case "why":
		err = c.why(args)
	case "metrics":
		c.metrics()
	case "watch":
		err = c.watch(args)
	case "flightrec":
		err = c.flightrec(args)
	case "timeline":
		fmt.Fprint(c.out, bench.Timeline(c.sys.Events()))
	case "latency":
		c.latency()
	case "view":
		c.view()
	case "status":
		err = c.status(args)
	case "set":
		err = c.set(args)
	case "trace":
		err = c.traceCmd(args)
	case "gantt":
		err = c.gantt(args)
	case "nodes":
		err = c.nodesCmd()
	case "links":
		err = c.linksCmd()
	case "migrate":
		err = c.migrateCmd(args)
	default:
		err = fmt.Errorf("unknown command %q (try help)", cmd)
	}
	if err != nil {
		fmt.Fprintf(c.out, "error: %v\n", err)
	}
	return false
}

func (c *Console) printHelp() {
	fmt.Fprint(c.out, `commands:
  deploy <file.xml>       parse and deploy a component descriptor
  plan <file.xml> [...]   typed-port check and wiring table (no deploy)
  remove|enable|disable|suspend|resume <name>
  run <duration>          advance simulated time (e.g. run 500ms)
  mode light|stress       switch the load regime
  modes                   declared service-mode ladders and admitted modes
  downgrade <name> [why]  step a component down one service mode
  promote <name>          allow a downgraded component to re-promote
  admit <file.xml> [...] -dry
                          dry-run admission, no deploy: the live resolver
                          chain asked about each component alone against
                          the current view; customized resolvers see the
                          consult exactly as at deploy
  list                    component table (alias: lb, ss)
  events                  unified decision timeline (with why column)
  spans [n]               last n observability spans (default 20)
  why <component>         causal chain behind a component's latest span
  metrics                 observability metrics snapshot
  watch <duration>        run + print the spans the interval produced
  flightrec [name]        flight-recorder dumps: list all, or print one
  timeline                per-component state strips
  latency                 per-task scheduling latency rows
  view                    admission view (budgets per CPU)
  status <name>           management-service status snapshot
  set <name> <key> <val>  set a component property (async)
  trace on|off            attach/detach the scheduler tracer
  gantt <duration>        run + render a scheduler Gantt chart
  nodes                   cluster global view (leader, reports, placements)
  links                   network ledger and per-pair partition status
  migrate <name> <node>   move a component to an explicit node
  quit                    end the session
cluster mode: spans/why/watch/metrics/flightrec read the federated
planes; names may be node-qualified (why n2/decoder, spans n1 10,
watch 40ms n0). Plain names stitch across nodes. admit needs a leading
node (admit n1 f.xml -dry).
`)
}

func (c *Console) deploy(args []string) error {
	if c.sys == nil {
		return c.deployCluster(args)
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: deploy <file.xml>")
	}
	data, err := c.ReadFile(args[0])
	if err != nil {
		return err
	}
	if err := c.sys.DeployXML(string(data)); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "deployed %s\n", args[0])
	return nil
}

// plan runs the typed-port check — without deploying — on the given
// descriptor files, in argument order, against the live system, and
// renders the component count, the wiring table and the typed conflicts.
// A conflict is the check's answer, not a command error. The wiring
// table is pre-sorted, so the render is deterministic.
func (c *Console) plan(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: plan <file.xml> [more.xml ...]")
	}
	srcs := make([]string, 0, len(args))
	for _, path := range args {
		data, err := c.ReadFile(path)
		if err != nil {
			return err
		}
		srcs = append(srcs, string(data))
	}
	p, err := c.sys.CompilePlan(srcs)
	var rej *drcom.PlanRejectError
	if errors.As(err, &rej) {
		fmt.Fprintf(c.out, "plan: %d components, %d typed conflicts\n", len(srcs), len(rej.Conflicts))
		for _, x := range rej.Conflicts {
			fmt.Fprintf(c.out, "  conflict: %s\n", strings.TrimPrefix(x.Error(), "plan: "))
		}
		return nil
	}
	if err != nil {
		return err
	}
	if p.Fallback != "" {
		fmt.Fprintf(c.out, "plan: %d components, not checked: %s\n", len(p.Components), p.Fallback)
		return nil
	}
	fmt.Fprintf(c.out, "plan: %d components, %d inport edges, no typed conflicts\n",
		len(p.Components), len(p.Edges))
	if len(p.Edges) > 0 {
		fmt.Fprintln(c.out, "wiring:")
		for _, e := range p.Edges {
			provider := "(unbound)"
			if e.Provider != "" {
				provider = e.Provider
			}
			fmt.Fprintf(c.out, "  %s.%s <- %s", e.Consumer, e.Inport, provider)
			if e.External {
				fmt.Fprint(c.out, " (external)")
			}
			if len(e.Modes) > 1 {
				fmt.Fprintf(c.out, " [%s]", strings.Join(e.Modes, ","))
			}
			fmt.Fprintln(c.out)
		}
	}
	return nil
}

// deployCluster routes a descriptor through the cluster: with an explicit
// node argument it pins the placement, otherwise the leader picks the
// node with the most headroom.
func (c *Console) deployCluster(args []string) error {
	if len(args) != 1 && len(args) != 2 {
		return fmt.Errorf("usage: deploy <file.xml> [node]")
	}
	data, err := c.ReadFile(args[0])
	if err != nil {
		return err
	}
	if len(args) == 2 {
		node, err := parseNodeID(args[1], c.cl.Nodes())
		if err != nil {
			return err
		}
		if err := c.cl.DeployXMLOn(node, string(data)); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "deployed %s on n%d\n", args[0], node)
		return nil
	}
	if err := c.cl.DeployXML(string(data)); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "deployed %s (leader-placed)\n", args[0])
	return nil
}

func (c *Console) lifecycle(cmd string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: %s <component>", cmd)
	}
	name := args[0]
	if c.sys == nil { // cluster mode: only remove routes through the catalog
		if err := c.cl.Remove(name); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "%s removed from the cluster\n", name)
		return nil
	}
	var err error
	switch cmd {
	case "remove":
		err = c.sys.Remove(name)
	case "enable":
		err = c.sys.Enable(name)
	case "disable":
		err = c.sys.Disable(name)
	case "suspend":
		err = c.sys.Suspend(name)
	case "resume":
		err = c.sys.Resume(name)
	}
	if err != nil {
		return err
	}
	info, _ := c.sys.Component(name)
	fmt.Fprintf(c.out, "%s: %v\n", name, info.State)
	return nil
}

func (c *Console) run(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: run <duration>")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	if c.sys == nil {
		if err := c.cl.Run(d); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "now %v\n", time.Duration(c.cl.Now()))
		return nil
	}
	if err := c.sys.Run(d); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "now %v\n", c.sys.Now())
	return nil
}

func (c *Console) mode(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: mode light|stress")
	}
	switch args[0] {
	case "light":
		c.sys.SetLoadMode(drcom.LightLoad)
	case "stress":
		c.sys.SetLoadMode(drcom.StressLoad)
	default:
		return fmt.Errorf("unknown mode %q", args[0])
	}
	fmt.Fprintf(c.out, "mode %s\n", args[0])
	return nil
}

// modes prints each component's declared service-mode ladder, marking
// the admitted mode. Single-mode components are summarised on one line.
func (c *Console) modes() {
	for _, info := range c.sys.Components() {
		if len(info.Modes) == 0 {
			fmt.Fprintf(c.out, "%-8s full contract only (%.0f%% @ %s)\n",
				info.Name, info.CPUUsage*100, info.State)
			continue
		}
		fmt.Fprintf(c.out, "%-8s %v\n", info.Name, info.State)
		for i, m := range info.Modes {
			marker := " "
			if i == info.Mode {
				marker = "*"
			}
			fmt.Fprintf(c.out, "  %s %d %-8s %6.0f Hz %5.0f%%", marker, i, m.Name, m.FrequencyHz, m.CPUUsage*100)
			if len(m.Drops) > 0 {
				fmt.Fprintf(c.out, "  drops %v", m.Drops)
			}
			fmt.Fprintln(c.out)
		}
	}
}

// downgrade steps a component down one declared mode.
func (c *Console) downgrade(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: downgrade <component> [reason]")
	}
	reason := "console request"
	if len(args) > 1 {
		reason = strings.Join(args[1:], " ")
	}
	if err := c.sys.Downgrade(args[0], reason); err != nil {
		return err
	}
	info, _ := c.sys.Component(args[0])
	fmt.Fprintf(c.out, "%s: %v mode %d (%s)\n", args[0], info.State, info.Mode, info.ModeName)
	return nil
}

// promote lifts a component's promotion hold.
func (c *Console) promote(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: promote <component>")
	}
	if err := c.sys.AllowPromotion(args[0]); err != nil {
		return err
	}
	info, _ := c.sys.Component(args[0])
	fmt.Fprintf(c.out, "%s: %v mode %d (%s)\n", args[0], info.State, info.Mode, info.ModeName)
	return nil
}

// admit dry-runs admission for descriptor files without deploying
// anything: it asks the live resolver chain about each component, alone
// and against the current admitted view, through the very mode walk the
// engine runs at deploy, and prints the mode it would admit, or the
// denial, with the chain's reason. The -dry flag is required; the deploy
// command is how a bundle is applied. In cluster mode a leading node
// argument picks the node whose chain and view are asked.
func (c *Console) admit(args []string) error {
	dry := false
	files := make([]string, 0, len(args))
	node := ""
	for _, a := range args {
		switch {
		case a == "-dry":
			dry = true
		case c.cl != nil && len(files) == 0 && !strings.Contains(a, "."):
			canon, err := c.normalizeNode(a)
			if err != nil {
				return err
			}
			node = canon
		default:
			files = append(files, a)
		}
	}
	usage := "usage: admit <file.xml> [more.xml ...] -dry"
	if c.sys == nil {
		usage = "usage: admit <node> <file.xml> [more.xml ...] -dry"
	}
	if len(files) == 0 {
		return fmt.Errorf("%s", usage)
	}
	if !dry {
		return fmt.Errorf("%s (admission is a dry run; deploy applies a bundle)", usage)
	}
	srcs := make([]string, 0, len(files))
	for _, path := range files {
		data, err := c.ReadFile(path)
		if err != nil {
			return err
		}
		srcs = append(srcs, string(data))
	}
	descs, err := descriptor.ParseAll(srcs)
	if err != nil {
		return err
	}
	tag := ""
	var drcr *core.DRCR
	if c.sys != nil {
		drcr = c.sys.DRCR()
	} else {
		if node == "" {
			return fmt.Errorf("%s", usage)
		}
		tag = "[" + node + "] "
		id, err := parseNodeID(node, c.cl.Nodes())
		if err != nil {
			return err
		}
		drcr = c.cl.Node(id).DRCR()
	}
	previews := drcr.DryAdmit(descs)
	admitted := 0
	for _, pv := range previews {
		if pv.Admit {
			admitted++
		}
	}
	fmt.Fprintf(c.out, "%sadmit (dry run): %d components, %d admitted, %d denied\n",
		tag, len(previews), admitted, len(previews)-admitted)
	for _, pv := range previews {
		verdict := "deny "
		if pv.Admit {
			verdict = "admit"
		}
		fmt.Fprintf(c.out, "%s  %-8s %s mode %s: %s\n", tag, pv.Name, verdict, pv.Mode, pv.Reason)
		if pv.Verdict != "" {
			fmt.Fprintf(c.out, "%s  %-8s verdict: %s\n", tag, "", pv.Verdict)
		}
		if pv.Admit && pv.Note != "" {
			fmt.Fprintf(c.out, "%s  %-8s full contract denied: %s\n", tag, "", pv.Note)
		}
	}
	return nil
}

func (c *Console) list() {
	infos := c.sys.Components()
	fmt.Fprintf(c.out, "%-8s %-11s %-9s %4s %4s %7s %4s  %s\n",
		"name", "state", "kind", "cpu", "prio", "budget", "imp", "bindings")
	for _, info := range infos {
		fmt.Fprintf(c.out, "%-8s %-11v %-9s %4d %4d %6.0f%% %4d  %s\n",
			info.Name, info.State, info.Kind, info.CPU, info.Priority,
			info.CPUUsage*100, info.Importance, formatBindings(info.Bindings))
	}
	fmt.Fprintf(c.out, "%d components\n", len(infos))
}

// formatBindings renders a binding map in explicit port-name order; the
// render feeds scripted session transcripts (and, through them, pinned
// digests), so the order must not lean on fmt's map formatting.
func formatBindings(b map[string]string) string {
	if len(b) == 0 {
		return "-"
	}
	ports := make([]string, 0, len(b))
	for port := range b {
		ports = append(ports, port)
	}
	sort.Strings(ports)
	parts := make([]string, 0, len(ports))
	for _, port := range ports {
		parts = append(parts, port+"<-"+b[port])
	}
	return strings.Join(parts, " ")
}

// / events prints the unified decision timeline: every retained span from
// the observability plane — lifecycle transitions, admission denials,
// contract violations, budget revoke/restore, quarantines, faults — with
// a why column naming the causing span when one is recorded.
func (c *Console) events() {
	o := c.sys.Observer()
	for _, s := range o.Spans() {
		if s.Kind == obs.KindSched || s.Kind == obs.KindResolveRound {
			continue // scheduler noise; use trace/gantt for that
		}
		fmt.Fprintf(c.out, "%s%s\n", s, c.whyColumn(o, s))
	}
}

// whyColumn renders the cause of a span, if it is still retained.
func (c *Console) whyColumn(o drcom.Observer, s drcom.Span) string {
	if s.Cause == 0 {
		return ""
	}
	cs, ok := o.Span(s.Cause)
	if !ok {
		return ""
	}
	why := "  why: " + cs.Kind.String()
	if cs.Component != "" {
		why += " " + cs.Component
	}
	if cs.To != "" {
		why += " " + cs.To
	}
	return why
}

// spans prints the most recent n retained spans, all kinds included.
// In cluster mode an optional leading node argument ("n2", "node2",
// "cluster") selects the plane; the default is the cluster plane.
func (c *Console) spans(args []string) error {
	if c.sys == nil && len(args) > 0 {
		if _, err := strconv.Atoi(args[0]); err != nil {
			return c.spansCluster(args[0], args[1:])
		}
	}
	if c.sys == nil {
		return c.spansCluster("cluster", args)
	}
	n := 20
	switch len(args) {
	case 0:
	case 1:
		v, err := strconv.Atoi(args[0])
		if err != nil || v <= 0 {
			return fmt.Errorf("usage: spans [n]")
		}
		n = v
	default:
		return fmt.Errorf("usage: spans [n]")
	}
	o := c.sys.Observer()
	all := o.Spans()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	for _, s := range all {
		fmt.Fprintf(c.out, "%s\n", s)
	}
	fmt.Fprintf(c.out, "%d spans shown, %d emitted\n", len(all), uint64(o.NextID())-1)
	return nil
}

// why prints the causal chain ending at a component's latest span,
// consequence first. In cluster mode the chain is stitched across
// node boundaries; a node-qualified name ("n2/decoder") pins the
// plane the walk starts on.
func (c *Console) why(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: why [node/]component")
	}
	if c.sys == nil {
		return c.whyCluster(args[0])
	}
	chain := c.sys.Observer().Why(args[0])
	if len(chain) == 0 {
		return fmt.Errorf("no spans recorded for %q", args[0])
	}
	fmt.Fprintf(c.out, "%s\n", chain[0])
	for _, s := range chain[1:] {
		fmt.Fprintf(c.out, "  <- %s\n", s)
	}
	return nil
}

// metrics prints the observability snapshot. Cluster mode prints the
// control-plane snapshot and the latency summary merged across every
// node's histograms.
func (c *Console) metrics() {
	if c.sys == nil {
		c.metricsCluster()
		return
	}
	fmt.Fprint(c.out, c.sys.Observer().Snapshot().Format())
}

// watch advances simulated time and prints every span the interval
// produced (scheduler bridge spans summarised, not listed). Cluster
// mode watches every plane, or one when a node argument follows the
// duration (watch 40ms n2).
func (c *Console) watch(args []string) error {
	if c.sys == nil {
		return c.watchCluster(args)
	}
	if len(args) != 1 {
		return fmt.Errorf("usage: watch <duration>")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	o := c.sys.Observer()
	from := o.NextID()
	if err := c.sys.Run(d); err != nil {
		return err
	}
	fresh := o.SpansSince(from)
	sched := 0
	for _, s := range fresh {
		if s.Kind == obs.KindSched {
			sched++
			continue
		}
		fmt.Fprintf(c.out, "%s%s\n", s, c.whyColumn(o, s))
	}
	fmt.Fprintf(c.out, "watched %v: %d new spans", d, len(fresh))
	if sched > 0 {
		fmt.Fprintf(c.out, " (%d sched)", sched)
	}
	fmt.Fprintln(c.out)
	return nil
}

func (c *Console) latency() {
	var rows []metrics.Row
	for _, task := range c.sys.Kernel().Tasks() {
		rows = append(rows, task.Stats().Latency)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Label < rows[j].Label })
	fmt.Fprint(c.out, metrics.FormatTable("scheduling latency (ns)", rows))
}

func (c *Console) view() {
	view := c.sys.GlobalView()
	for cpuID := 0; cpuID < view.NumCPUs; cpuID++ {
		var sum float64
		names := []string{}
		for _, ct := range view.OnCPU(cpuID) {
			sum += ct.CPUUsage
			names = append(names, ct.Name)
		}
		fmt.Fprintf(c.out, "cpu%d: %3.0f%% declared (%s)\n", cpuID, sum*100, strings.Join(names, " "))
	}
}

func (c *Console) status(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: status <component>")
	}
	mgmt, ok := c.sys.Management(args[0])
	if !ok {
		return fmt.Errorf("no management service for %q (not active?)", args[0])
	}
	st := mgmt.Status()
	fmt.Fprintf(c.out, "%s: task=%v jobs=%d misses=%d skips=%d served=%d lost=%d last=%v\n",
		args[0], st.TaskState, st.Jobs, st.Misses, st.Skips,
		st.CommandsServed, st.CommandsLost, st.LastJobAt)
	return nil
}

func (c *Console) set(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("usage: set <component> <key> <value>")
	}
	mgmt, ok := c.sys.Management(args[0])
	if !ok {
		return fmt.Errorf("no management service for %q", args[0])
	}
	if err := mgmt.SetProperty(args[1], args[2]); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "queued %s=%s for %s (applied at next job)\n", args[1], args[2], args[0])
	return nil
}

func (c *Console) traceCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: trace on|off")
	}
	switch args[0] {
	case "on":
		c.tracer = c.sys.Kernel().StartTrace(0)
		fmt.Fprintln(c.out, "trace on")
	case "off":
		c.sys.Kernel().StopTrace()
		c.tracer = nil
		fmt.Fprintln(c.out, "trace off")
	default:
		return fmt.Errorf("usage: trace on|off")
	}
	return nil
}

func (c *Console) gantt(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: gantt <duration>")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	tracer := c.sys.Kernel().StartTrace(0)
	from := c.sys.Now()
	if err := c.sys.Run(d); err != nil {
		return err
	}
	if c.tracer == nil {
		c.sys.Kernel().StopTrace()
	}
	fmt.Fprint(c.out, tracer.Gantt(from, c.sys.Now(), 96))
	return nil
}

// parseNodeID accepts "3" or "n3".
func parseNodeID(s string, nodes int) (int, error) {
	id, err := strconv.Atoi(strings.TrimPrefix(s, "n"))
	if err != nil || id < 0 || id >= nodes {
		return 0, fmt.Errorf("no node %q (cluster has n0..n%d)", s, nodes-1)
	}
	return id, nil
}

// nodesCmd prints the global view: one row per node with its leader
// belief, reachable peers and the leader's freshest report, then the
// placement catalog. All map walks render in explicit sorted order.
func (c *Console) nodesCmd() error {
	if c.cl == nil {
		return fmt.Errorf("no cluster attached")
	}
	v := c.cl.GlobalView()
	fmt.Fprintf(c.out, "leader n%d\n", v.Leader)
	fmt.Fprintf(c.out, "%-5s %-7s %-12s %6s %9s  %s\n",
		"node", "leader", "reachable", "load", "admitted", "components")
	for _, n := range v.Nodes {
		reach := make([]string, 0, len(n.Reachable))
		for _, id := range n.Reachable {
			reach = append(reach, fmt.Sprintf("n%d", id))
		}
		names := make([]string, 0, len(n.Comps))
		for name := range n.Comps {
			names = append(names, name)
		}
		sort.Strings(names)
		comps := make([]string, 0, len(names))
		for _, name := range names {
			comps = append(comps, fmt.Sprintf("%s/m%d", name, n.Comps[name]))
		}
		fmt.Fprintf(c.out, "n%-4d n%-6d %-12s %5.0f%% %9d  %s\n",
			n.ID, n.Leader, strings.Join(reach, ","), n.Load*100, n.Admitted,
			strings.Join(comps, " "))
	}
	names := make([]string, 0, len(v.Placements))
	for name := range v.Placements {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(c.out, "placed %s -> n%d\n", name, v.Placements[name])
	}
	fmt.Fprintf(c.out, "converged %v\n", c.cl.Converged())
	return nil
}

// linksCmd prints the network conservation ledger and the current cut
// status of every node pair.
func (c *Console) linksCmd() error {
	if c.cl == nil {
		return fmt.Errorf("no cluster attached")
	}
	st := c.cl.Net().Stats()
	fmt.Fprintf(c.out, "net: sent %d dup %d delivered %d dropped %d (partition %d, loss %d) inflight %d\n",
		st.Sent, st.Duplicated, st.Delivered, st.Dropped, st.PartitionDrops, st.LossDrops, st.Inflight)
	cut := 0
	for a := 0; a < c.cl.Nodes(); a++ {
		for b := a + 1; b < c.cl.Nodes(); b++ {
			if c.cl.Net().Partitioned(a, b) {
				fmt.Fprintf(c.out, "link n%d<->n%d: CUT\n", a, b)
				cut++
			}
		}
	}
	if cut == 0 {
		fmt.Fprintf(c.out, "all %d links up\n", c.cl.Nodes()*(c.cl.Nodes()-1)/2)
	}
	return nil
}

// planeNames lists the federation's planes in render order: the
// cluster control plane first, then nodes by id.
func (c *Console) planeNames() []string {
	names := make([]string, 0, c.cl.Nodes()+1)
	names = append(names, "cluster")
	for i := 0; i < c.cl.Nodes(); i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	return names
}

// normalizeNode canonicalises a plane qualifier: "cluster", "n2" and
// "node2" are accepted; the canonical plane key comes back.
func (c *Console) normalizeNode(s string) (string, error) {
	if s == "cluster" {
		return s, nil
	}
	q := strings.TrimPrefix(s, "node")
	if q == s {
		q = strings.TrimPrefix(s, "n")
	}
	id, err := strconv.Atoi(q)
	if err != nil || id < 0 || id >= c.cl.Nodes() {
		return "", fmt.Errorf("no plane %q (cluster, n0..n%d)", s, c.cl.Nodes()-1)
	}
	return fmt.Sprintf("n%d", id), nil
}

// splitNodeQualified splits "n2/decoder" into plane and component;
// a bare name comes back with an empty plane.
func splitNodeQualified(s string) (node, comp string) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return "", s
}

// spansCluster prints the last n retained spans of one plane.
func (c *Console) spansCluster(node string, rest []string) error {
	node, err := c.normalizeNode(node)
	if err != nil {
		return err
	}
	n := 20
	switch len(rest) {
	case 0:
	case 1:
		v, err := strconv.Atoi(rest[0])
		if err != nil || v <= 0 {
			return fmt.Errorf("usage: spans [node] [n]")
		}
		n = v
	default:
		return fmt.Errorf("usage: spans [node] [n]")
	}
	p := c.cl.Planes()[node]
	all := p.Spans()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	for _, s := range all {
		fmt.Fprintf(c.out, "[%s] %s\n", node, s)
	}
	fmt.Fprintf(c.out, "%d spans shown on %s, %d emitted\n", len(all), node, uint64(p.NextID())-1)
	return nil
}

// whyCluster prints a stitched causal chain, each hop tagged with the
// plane it was recorded on.
func (c *Console) whyCluster(arg string) error {
	node, comp := splitNodeQualified(arg)
	var chain []obs.StitchedSpan
	if node == "" {
		chain = c.cl.Why(comp)
	} else {
		canon, err := c.normalizeNode(node)
		if err != nil {
			return err
		}
		chain = c.cl.WhyOn(canon, comp)
	}
	if len(chain) == 0 {
		return fmt.Errorf("no spans recorded for %q", arg)
	}
	fmt.Fprintf(c.out, "[%s] %s\n", chain[0].Node, chain[0].Span)
	for _, s := range chain[1:] {
		fmt.Fprintf(c.out, "  <- [%s] %s\n", s.Node, s.Span)
	}
	return nil
}

// watchCluster advances the federation and prints what each plane
// recorded during the interval.
func (c *Console) watchCluster(args []string) error {
	if len(args) != 1 && len(args) != 2 {
		return fmt.Errorf("usage: watch <duration> [node]")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	names := c.planeNames()
	if len(args) == 2 {
		node, err := c.normalizeNode(args[1])
		if err != nil {
			return err
		}
		names = []string{node}
	}
	planes := c.cl.Planes()
	from := make(map[string]obs.SpanID, len(names))
	for _, name := range names {
		from[name] = planes[name].NextID()
	}
	if err := c.cl.Run(d); err != nil {
		return err
	}
	total, sched := 0, 0
	for _, name := range names {
		fresh := planes[name].SpansSince(from[name])
		total += len(fresh)
		for _, s := range fresh {
			if s.Kind == obs.KindSched {
				sched++
				continue
			}
			fmt.Fprintf(c.out, "[%s] %s\n", name, s)
		}
	}
	fmt.Fprintf(c.out, "watched %v: %d new spans", d, total)
	if sched > 0 {
		fmt.Fprintf(c.out, " (%d sched)", sched)
	}
	fmt.Fprintln(c.out)
	return nil
}

// metricsCluster prints the control-plane snapshot and the latency
// summary merged over every plane's histograms.
func (c *Console) metricsCluster() {
	fmt.Fprint(c.out, c.cl.Planes()["cluster"].Snapshot().Format())
	stats := c.cl.LatencyStats()
	if len(stats) == 0 {
		return
	}
	fmt.Fprintln(c.out, "cluster latency (merged):")
	for _, st := range stats {
		fmt.Fprintf(c.out, "  %-18s n=%-6d p50 %-10v p95 %-10v p99 %-10v max %v\n",
			st.Name, st.Count, time.Duration(st.P50NS), time.Duration(st.P95NS),
			time.Duration(st.P99NS), time.Duration(st.MaxNS))
	}
}

// flightrec lists the retained flight-recorder dumps, or prints one
// dump's frozen span window by name. Cluster mode gathers dumps from
// every plane under node-qualified names.
func (c *Console) flightrec(args []string) error {
	if len(args) > 1 {
		return fmt.Errorf("usage: flightrec [name]")
	}
	var dumps []obs.FlightDump
	if c.sys == nil {
		dumps = c.cl.FlightDumps()
	} else {
		dumps = c.sys.Observer().FlightDumps()
	}
	if len(args) == 1 {
		for _, d := range dumps {
			if d.Name != args[0] {
				continue
			}
			fmt.Fprintf(c.out, "%s: at=%v trigger=%d spans=%d\n",
				d.Name, time.Duration(d.At), d.Trigger, len(d.Spans))
			for _, s := range d.Spans {
				fmt.Fprintf(c.out, "  %s\n", s)
			}
			return nil
		}
		return fmt.Errorf("no flight dump %q", args[0])
	}
	if len(dumps) == 0 {
		fmt.Fprintln(c.out, "no flight dumps")
		return nil
	}
	for _, d := range dumps {
		open := ""
		if !d.Complete() {
			open = " (open)"
		}
		fmt.Fprintf(c.out, "%s: at=%v trigger=%d spans=%d%s\n",
			d.Name, time.Duration(d.At), d.Trigger, len(d.Spans), open)
	}
	return nil
}

// migrateCmd moves a component to an explicit node.
func (c *Console) migrateCmd(args []string) error {
	if c.cl == nil {
		return fmt.Errorf("no cluster attached")
	}
	if len(args) != 2 {
		return fmt.Errorf("usage: migrate <component> <node>")
	}
	dst, err := parseNodeID(args[1], c.cl.Nodes())
	if err != nil {
		return err
	}
	if err := c.cl.Migrate(args[0], dst); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s -> n%d\n", args[0], dst)
	return nil
}

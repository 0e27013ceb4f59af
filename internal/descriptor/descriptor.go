// Package descriptor implements the DRCom component description of the
// paper's §2.3: an XML document declaring a component's real-time
// contract (task type, priority, frequency, CPU affinity, CPU budget),
// its communication ports, and its configuration properties.
//
// The schema follows the paper's Figure 2 verbatim, including its
// spellings ("frequence", "runoncup", "bincode"); the conventional
// spellings are accepted as aliases.
package descriptor

import (
	"encoding/xml"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/policy"
	"repro/internal/rtos/ipc"
)

// TaskKind is the declared task type.
type TaskKind string

// Task kinds.
const (
	Periodic  TaskKind = "periodic"
	Aperiodic TaskKind = "aperiodic"
)

// PortInterface is the transport a port maps to.
type PortInterface string

// Supported port interfaces (paper §2.3: "only the RTAI.SHM and
// RTAI.Mailbox are supported").
const (
	SHM     PortInterface = "RTAI.SHM"
	Mailbox PortInterface = "RTAI.Mailbox"
)

// Direction tells producer ports from consumer ports.
type Direction int

// Port directions.
const (
	Out Direction = iota + 1
	In
)

func (d Direction) String() string {
	if d == Out {
		return "outport"
	}
	return "inport"
}

// Port is one communication endpoint.
type Port struct {
	Name      string
	Interface PortInterface
	Type      ipc.ElemType
	Size      int // element count; byte size is Size*Type.Size()
	Direction Direction
	// Version is the typed-contract version annotation in canonical
	// form: a concrete version on an outport ("1.2.0"), an accepted
	// version range on an inport ("1.2.0", "[1.0.0,2.0.0)"). Empty
	// means unversioned — the paper's bare string matching.
	Version string
	// DataType is the structural payload type in canonical form (see
	// typing.go for the grammar). Empty means unchecked.
	DataType string
	// c is Version and DataType compiled for Direction (typing.go), nil
	// for a port without annotations or one built by hand. Parse and
	// Compile set it; a Version, DataType or Direction reassigned after
	// either is not re-read.
	c *contract
}

// CanSatisfy reports whether this outport satisfies the given inport:
// same port name, same transport, same element type, and at least the
// required size (paper §2.3: name+interface+type+size determine
// compatibility), plus the typed version/datatype rules of typing.go
// when the ports carry annotations.
func (p Port) CanSatisfy(in Port) bool {
	if p.Direction != Out || in.Direction != In || p.Name != in.Name ||
		p.Interface != in.Interface || p.Type != in.Type || p.Size < in.Size {
		return false
	}
	// An inport without annotations accepts any provider; skip the call.
	if in.Version == "" && in.DataType == "" {
		return true
	}
	m, _ := typedMatch(&p, &in)
	return m == typedOK
}

// Property is one configuration property.
type Property struct {
	Name  string
	Type  string // Integer, Float, String, Boolean
	Value string
}

// Int returns the property as an integer.
func (p Property) Int() (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(p.Value))
	if err != nil {
		return 0, fmt.Errorf("descriptor: property %s: %w", p.Name, err)
	}
	return v, nil
}

// PeriodicSpec carries the periodictask element.
type PeriodicSpec struct {
	// FrequencyHz is the release rate (the descriptor's "frequence").
	FrequencyHz float64
	// CPU is the processor affinity (the descriptor's "runoncup").
	CPU int
	// Priority is the RT priority; lower is more urgent.
	Priority int
}

// Period converts the frequency to a release period.
func (p PeriodicSpec) Period() time.Duration {
	if p.FrequencyHz <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / p.FrequencyHz)
}

// AperiodicSpec carries the aperiodictask element.
type AperiodicSpec struct {
	CPU      int
	Priority int
}

// Mode is one declared degraded service mode. The component's base
// contract (its cpuusage / frequence attributes) is mode 0, the full
// contract; each <mode> element appends a cheaper fallback the DRCR may
// admit when the full contract does not fit ("downgrade-before-deny")
// or step down to when the contract guard observes violations.
// Validation enforces monotonically decreasing cost across the list.
type Mode struct {
	// Name labels the mode ("eco", "min", ...); unique per component.
	Name string
	// FrequencyHz overrides the periodic release rate in this mode;
	// 0 inherits the base rate.
	FrequencyHz float64
	// CPUUsage is the mode's declared CPU budget fraction; must be
	// strictly below the previous mode's budget.
	CPUUsage float64
	// Drops lists inports the component does not require in this mode —
	// optional inputs it can serve without. Outports are never dropped,
	// so dependants stay satisfied across a downgrade.
	Drops []string
}

// Period converts the mode's resolved frequency to a release period
// (0 for aperiodic components). Meaningful on ModeSpec results, where
// an inherited frequency has been filled in.
func (m Mode) Period() time.Duration {
	return PeriodicSpec{FrequencyHz: m.FrequencyHz}.Period()
}

// FullModeName labels mode 0, the base contract.
const FullModeName = "full"

// NumModes is the number of service modes: 1 (the base contract) plus
// one per declared <mode> element.
func (c *Component) NumModes() int { return 1 + len(c.Modes) }

// ModeName returns the label of mode i (mode 0 is "full").
func (c *Component) ModeName(i int) string {
	if i <= 0 || i > len(c.Modes) {
		return FullModeName
	}
	return c.Modes[i-1].Name
}

// ModeSpec returns the effective contract parameters of mode i with
// inherited fields resolved: mode 0 is the base contract, later modes
// fill FrequencyHz from the base rate when they do not override it.
func (c *Component) ModeSpec(i int) Mode {
	base := Mode{Name: FullModeName, CPUUsage: c.CPUUsage}
	if c.Periodic != nil {
		base.FrequencyHz = c.Periodic.FrequencyHz
	}
	if i <= 0 || i > len(c.Modes) {
		return base
	}
	m := c.Modes[i-1]
	if m.FrequencyHz <= 0 {
		m.FrequencyHz = base.FrequencyHz
	}
	return m
}

// RequiresInport reports whether the named inport is required in mode i
// (a mode's Drops list exempts it).
func (c *Component) RequiresInport(mode int, name string) bool {
	if mode <= 0 || mode > len(c.Modes) {
		return true
	}
	for _, d := range c.Modes[mode-1].Drops {
		if d == name {
			return false
		}
	}
	return true
}

// Component is a parsed, validated DRCom descriptor.
type Component struct {
	// Name is globally unique and doubles as the RT task name, hence the
	// RTAI six-character limit (paper §2.3).
	Name        string
	Description string
	Kind        TaskKind
	// Enabled controls whether the component activates when its bundle
	// starts (default true; see enableRTComponent in the paper).
	Enabled bool
	// CPUUsage is the declared CPU budget fraction this component claims
	// to guarantee its real-time characteristics.
	CPUUsage float64
	// Importance ranks components for adaptation decisions (higher =
	// more important; default 0). This is a DRCom extension in the
	// direction of the paper's §6 "more powerful component description
	// language": adaptation managers use it to pick victims under
	// overload.
	Importance int
	// Budget, when non-nil, refines CPUUsage into a distribution-valued
	// stochastic contract (the optional <budget dist="normal(mu,sigma)"
	// p="0.99"/> element): admission then asks that the composed load on
	// the component's CPU stay under the bound with probability ≥
	// BudgetP, instead of comparing constants. CPUUsage stays the
	// declared nominal fraction.
	Budget *policy.Dist
	// BudgetP is the declared deadline-met probability in (0,1);
	// policy.DefaultMetP when the budget element omits the p attribute.
	// Zero when Budget is nil.
	BudgetP        float64
	Implementation string // the "bincode" implementation class
	Periodic       *PeriodicSpec
	Aperiodic      *AperiodicSpec
	InPorts        []Port
	OutPorts       []Port
	Properties     []Property
	// Modes are the declared degraded service modes, cheapest last; the
	// base contract above is mode 0. Empty for single-mode components.
	Modes []Mode
}

// Property looks up a property by name.
func (c *Component) Property(name string) (Property, bool) {
	for _, p := range c.Properties {
		if p.Name == name {
			return p, true
		}
	}
	return Property{}, false
}

// CPU returns the component's processor affinity.
func (c *Component) CPU() int {
	switch {
	case c.Periodic != nil:
		return c.Periodic.CPU
	case c.Aperiodic != nil:
		return c.Aperiodic.CPU
	default:
		return 0
	}
}

// Priority returns the component's declared RT priority.
func (c *Component) Priority() int {
	switch {
	case c.Periodic != nil:
		return c.Periodic.Priority
	case c.Aperiodic != nil:
		return c.Aperiodic.Priority
	default:
		return 0
	}
}

// xml wire format ---------------------------------------------------------

// The wire structs keep their encoding/xml tags: the scanner (scan.go)
// fills them by hand, and the tests hold it to xml.Unmarshal over this
// schema.

type xmlPort struct {
	Name      string `xml:"name,attr"`
	Interface string `xml:"interface,attr"`
	Type      string `xml:"type,attr"`
	Size      string `xml:"size,attr"`
	Version   string `xml:"version,attr"`
	DataType  string `xml:"datatype,attr"`
}

type xmlImplementation struct {
	Bincode string `xml:"bincode,attr"`
	Class   string `xml:"class,attr"` // conventional alias
}

type xmlPeriodic struct {
	Frequence string `xml:"frequence,attr"`
	Frequency string `xml:"frequency,attr"` // alias
	RunOnCup  string `xml:"runoncup,attr"`
	RunOnCPU  string `xml:"runoncpu,attr"` // alias
	Priority  string `xml:"priority,attr"`
}

type xmlAperiodic struct {
	RunOnCup string `xml:"runoncup,attr"`
	RunOnCPU string `xml:"runoncpu,attr"`
	Priority string `xml:"priority,attr"`
}

type xmlBudget struct {
	Dist string `xml:"dist,attr"`
	P    string `xml:"p,attr"`
}

type xmlMode struct {
	Name      string `xml:"name,attr"`
	Frequence string `xml:"frequence,attr"`
	Frequency string `xml:"frequency,attr"` // alias
	CPUUsage  string `xml:"cpuusage,attr"`
	Drops     string `xml:"drops,attr"` // space-separated inport names
}

type xmlProperty struct {
	Name  string `xml:"name,attr"`
	Type  string `xml:"type,attr"`
	Value string `xml:"value,attr"`
}

type xmlComponent struct {
	XMLName    xml.Name `xml:"component"`
	Name       string   `xml:"name,attr"`
	Desc       string   `xml:"desc,attr"`
	Type       string   `xml:"type,attr"`
	Enabled    string   `xml:"enabled,attr"`
	CPUUsage   string   `xml:"cpuusage,attr"`
	Importance string   `xml:"importance,attr"`

	Implementation xmlImplementation `xml:"implementation"`
	PeriodicTask   *xmlPeriodic      `xml:"periodictask"`
	AperiodicTask  *xmlAperiodic     `xml:"aperiodictask"`
	Budget         *xmlBudget        `xml:"budget"`
	OutPorts       []xmlPort         `xml:"outport"`
	InPorts        []xmlPort         `xml:"inport"`
	Modes          []xmlMode         `xml:"mode"`
	Properties     []xmlProperty     `xml:"property"`
}

// Attribute names per element, in the order decode passes the fields.
var (
	componentAttrs = []string{"name", "desc", "type", "enabled", "cpuusage", "importance"}
	implAttrs      = []string{"bincode", "class"}
	periodicAttrs  = []string{"frequence", "frequency", "runoncup", "runoncpu", "priority"}
	aperiodicAttrs = []string{"runoncup", "runoncpu", "priority"}
	budgetAttrs    = []string{"dist", "p"}
	portAttrs      = []string{"name", "interface", "type", "size", "version", "datatype"}
	modeAttrs      = []string{"name", "frequence", "frequency", "cpuusage", "drops"}
	propertyAttrs  = []string{"name", "type", "value"}
)

// ValidationError aggregates everything wrong with a descriptor.
type ValidationError struct {
	Component string
	Problems  []string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("descriptor: component %q invalid: %s",
		e.Component, strings.Join(e.Problems, "; "))
}

// Parse reads and validates one DRCom component descriptor.
func Parse(src string) (*Component, error) {
	xc, err := decode(src)
	if err != nil {
		return nil, fmt.Errorf("descriptor: XML: %w", err)
	}
	c := &Component{
		Name:        strings.TrimSpace(xc.Name),
		Description: xc.Desc,
		Kind:        TaskKind(strings.ToLower(strings.TrimSpace(xc.Type))),
		Enabled:     strings.TrimSpace(xc.Enabled) != "false",
	}
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	if c.Name == "" {
		addf("missing name")
	} else if !ipc.ValidName(c.Name) {
		addf("name %q must be 1..%d characters (RTAI task name)", c.Name, ipc.MaxNameLen)
	}

	if xc.CPUUsage != "" {
		u, err := strconv.ParseFloat(strings.TrimSpace(xc.CPUUsage), 64)
		if err != nil || !(u >= 0 && u <= 1) {
			addf("cpuusage %q must be a fraction in [0,1]", xc.CPUUsage)
		} else {
			c.CPUUsage = u
		}
	}

	if xc.Importance != "" {
		n, err := strconv.Atoi(strings.TrimSpace(xc.Importance))
		if err != nil || n < 0 {
			addf("importance %q must be a non-negative integer", xc.Importance)
		} else {
			c.Importance = n
		}
	}

	c.Implementation = firstNonEmpty(xc.Implementation.Bincode, xc.Implementation.Class)
	if c.Implementation == "" {
		addf("missing implementation bincode")
	}

	switch c.Kind {
	case Periodic:
		if xc.PeriodicTask == nil {
			addf("periodic component needs a periodictask element")
		} else {
			spec := &PeriodicSpec{}
			freq := firstNonEmpty(xc.PeriodicTask.Frequence, xc.PeriodicTask.Frequency)
			if f, ok := parseFrequency(freq); !ok {
				addf("periodictask frequence %q %s", freq, frequencyRule)
			} else {
				spec.FrequencyHz = f
			}
			spec.CPU, spec.Priority = parseCPUPrio(
				firstNonEmpty(xc.PeriodicTask.RunOnCup, xc.PeriodicTask.RunOnCPU),
				xc.PeriodicTask.Priority, addf)
			c.Periodic = spec
		}
	case Aperiodic:
		spec := &AperiodicSpec{}
		if xc.AperiodicTask != nil {
			spec.CPU, spec.Priority = parseCPUPrio(
				firstNonEmpty(xc.AperiodicTask.RunOnCup, xc.AperiodicTask.RunOnCPU),
				xc.AperiodicTask.Priority, addf)
		}
		c.Aperiodic = spec
	default:
		addf("type %q must be periodic or aperiodic", xc.Type)
	}

	if xc.Budget != nil {
		d, err := policy.ParseDist(xc.Budget.Dist)
		if err != nil {
			addf("budget %v", err)
		} else {
			c.Budget = d
		}
		c.BudgetP = policy.DefaultMetP
		if ps := strings.TrimSpace(xc.Budget.P); ps != "" {
			p, err := strconv.ParseFloat(ps, 64)
			if err != nil || !(p > 0 && p < 1) {
				addf("budget p %q must be a probability in (0,1)", xc.Budget.P)
			} else {
				c.BudgetP = p
			}
		}
		if c.CPUUsage <= 0 {
			addf("budget requires a declared cpuusage (the nominal fraction the load accumulators track)")
		}
	}

	seenPorts := map[string]bool{}
	for _, xp := range xc.OutPorts {
		if p, ok := parsePort(xp, Out, seenPorts, addf); ok {
			c.OutPorts = append(c.OutPorts, p)
		}
	}
	for _, xp := range xc.InPorts {
		if p, ok := parsePort(xp, In, seenPorts, addf); ok {
			c.InPorts = append(c.InPorts, p)
		}
	}

	prevCost := c.CPUUsage
	seenModes := map[string]bool{FullModeName: true}
	for i, xm := range xc.Modes {
		m := Mode{Name: strings.TrimSpace(xm.Name)}
		if m.Name == "" {
			addf("mode %d missing name", i+1)
		} else if seenModes[m.Name] {
			addf("duplicate mode name %q", m.Name)
		} else {
			seenModes[m.Name] = true
		}
		if freq := firstNonEmpty(xm.Frequence, xm.Frequency); freq != "" {
			if c.Kind != Periodic {
				addf("mode %q sets frequence on a non-periodic component", m.Name)
			} else if f, ok := parseFrequency(freq); !ok {
				addf("mode %q frequence %q %s", m.Name, freq, frequencyRule)
			} else {
				m.FrequencyHz = f
			}
		}
		u, err := strconv.ParseFloat(strings.TrimSpace(xm.CPUUsage), 64)
		switch {
		case err != nil || !(u > 0 && u <= 1):
			addf("mode %q cpuusage %q must be a fraction in (0,1]", m.Name, xm.CPUUsage)
		case u >= prevCost:
			addf("mode %q cpuusage %g must be below the preceding mode's %g (monotonically decreasing cost)",
				m.Name, u, prevCost)
		default:
			m.CPUUsage = u
			prevCost = u
		}
		for _, d := range strings.Fields(xm.Drops) {
			declared := false
			for _, in := range c.InPorts {
				if in.Name == d {
					declared = true
					break
				}
			}
			if !declared {
				addf("mode %q drops unknown inport %q", m.Name, d)
				continue
			}
			m.Drops = append(m.Drops, d)
		}
		c.Modes = append(c.Modes, m)
	}

	seenProps := map[string]bool{}
	for _, xp := range xc.Properties {
		if xp.Name == "" {
			addf("property without name")
			continue
		}
		if seenProps[xp.Name] {
			addf("duplicate property %q", xp.Name)
			continue
		}
		seenProps[xp.Name] = true
		typ := xp.Type
		if typ == "" {
			typ = "String"
		}
		switch typ {
		case "Integer", "Float", "String", "Boolean":
		default:
			addf("property %q has unknown type %q", xp.Name, xp.Type)
			continue
		}
		c.Properties = append(c.Properties, Property{Name: xp.Name, Type: typ, Value: xp.Value})
	}

	if len(problems) > 0 {
		return nil, &ValidationError{Component: c.Name, Problems: problems}
	}
	return c, nil
}

// ParseAll parses a set of descriptor documents, failing on the first
// error or duplicate component name.
func ParseAll(srcs []string) ([]*Component, error) {
	seen := map[string]bool{}
	out := make([]*Component, 0, len(srcs))
	for i, src := range srcs {
		c, err := Parse(src)
		if err != nil {
			return nil, fmt.Errorf("descriptor %d: %w", i, err)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("descriptor: duplicate component name %q", c.Name)
		}
		seen[c.Name] = true
		out = append(out, c)
	}
	return out, nil
}

// frequencyRule is what parseFrequency requires of a rate.
const frequencyRule = "must be a positive finite rate in Hz whose period is from 1ns to the longest time.Duration"

// parseFrequency parses a release rate in Hz. strconv accepts NaN, ±Inf
// and rates such as 1e-300 or 2e9 whose period overflows a time.Duration
// or truncates to 0; the rate must instead give a period of at least 1 ns
// that a time.Duration holds, so Period is always positive.
func parseFrequency(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, false
	}
	period := float64(time.Second) / f
	return f, period >= 1 && period < math.MaxInt64
}

func parseCPUPrio(cpuStr, prioStr string, addf func(string, ...any)) (cpuID, prio int) {
	if cpuStr != "" {
		v, err := strconv.Atoi(strings.TrimSpace(cpuStr))
		if err != nil || v < 0 {
			addf("runoncup %q must be a non-negative integer", cpuStr)
		} else {
			cpuID = v
		}
	}
	if prioStr != "" {
		v, err := strconv.Atoi(strings.TrimSpace(prioStr))
		if err != nil || v < 0 {
			addf("priority %q must be a non-negative integer", prioStr)
		} else {
			prio = v
		}
	}
	return cpuID, prio
}

func parsePort(xp xmlPort, dir Direction, seen map[string]bool, addf func(string, ...any)) (Port, bool) {
	ok := true
	p := Port{Name: xp.Name, Direction: dir}
	if xp.Name == "" {
		addf("%v without name", dir)
		ok = false
	} else if !ipc.ValidName(xp.Name) {
		addf("%v name %q must be 1..%d characters", dir, xp.Name, ipc.MaxNameLen)
		ok = false
	} else if seen[xp.Name] {
		addf("duplicate port name %q", xp.Name)
		ok = false
	} else {
		seen[xp.Name] = true
	}
	switch PortInterface(xp.Interface) {
	case SHM, Mailbox:
		p.Interface = PortInterface(xp.Interface)
	default:
		addf("port %q interface %q must be RTAI.SHM or RTAI.Mailbox", xp.Name, xp.Interface)
		ok = false
	}
	if t, err := ipc.ParseElemType(strings.TrimSpace(xp.Type)); err != nil {
		addf("port %q type %q must be Integer or Byte", xp.Name, xp.Type)
		ok = false
	} else {
		p.Type = t
	}
	if n, err := strconv.Atoi(strings.TrimSpace(xp.Size)); err != nil || n <= 0 {
		addf("port %q size %q must be a positive integer", xp.Name, xp.Size)
		ok = false
	} else {
		p.Size = n
	}
	v, dtSrc := strings.TrimSpace(xp.Version), strings.TrimSpace(xp.DataType)
	c, verErr, dtErr := compileContract(dir, v, dtSrc)
	if v != "" {
		switch {
		case verErr != nil && dir == Out:
			addf("outport %q version %q must be a version (major[.minor[.micro]]): %v", xp.Name, xp.Version, verErr)
			ok = false
		case verErr != nil:
			addf("inport %q version %q must be a version range: %v", xp.Name, xp.Version, verErr)
			ok = false
		default:
			var buf [64]byte
			p.Version = canonical(v, c.appendVersion(dir, buf[:0]))
		}
	}
	if dtSrc != "" {
		if dtErr != nil {
			addf("port %q datatype %q invalid: %v", xp.Name, xp.DataType, dtErr)
			ok = false
		} else {
			et, n, err := c.dt.flatten()
			switch {
			case err != nil:
				addf("port %q datatype %q invalid: %v", xp.Name, xp.DataType, err)
				ok = false
			case p.Type != 0 && et != 0 && et != p.Type:
				addf("port %q datatype %q flattens to %v elements but the port type is %v", xp.Name, xp.DataType, et, p.Type)
				ok = false
			case p.Size != 0 && n > p.Size:
				addf("port %q datatype %q needs %d elements but the port size is %d", xp.Name, xp.DataType, n, p.Size)
				ok = false
			default:
				var buf [128]byte
				p.DataType = canonical(dtSrc, c.dt.appendTo(buf[:0]))
			}
		}
	}
	if ok {
		p.c = c
	}
	return p, ok
}

func firstNonEmpty(ss ...string) string {
	for _, s := range ss {
		if strings.TrimSpace(s) != "" {
			return strings.TrimSpace(s)
		}
	}
	return ""
}

// ErrNotDRCom is returned by Sniff for XML that is not a DRCom component.
var ErrNotDRCom = errors.New("descriptor: not a DRCom component document")

// Sniff reports whether src looks like a DRCom component descriptor
// (root element "component"), without full validation. It reads through
// the root element, so a malformed document is an XML error whatever its
// root.
func Sniff(src string) error {
	root, err := sniff(src)
	if err != nil {
		return fmt.Errorf("descriptor: XML: %w", err)
	}
	if root != "component" {
		return ErrNotDRCom
	}
	return nil
}

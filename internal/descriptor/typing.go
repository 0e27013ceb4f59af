// Typed, versioned port contracts. Ports optionally carry two extra
// attributes beyond the paper's name/interface/type/size quadruple:
//
//   - version:  on an outport, the concrete contract version the
//     provider implements ("1.2.0"); on an inport, an OSGi version
//     range the consumer accepts ("1.2" == [1.2.0,∞), "[1.0,2.0)").
//
//   - datatype: a structural description of the payload carried in the
//     port's buffer, in a small grammar:
//
//     T := int32 | byte | T[n] | struct{field:T,field:T,...}
//
// Both attributes are optional and default to today's bare string
// matching, so descriptors without them behave exactly as before.
//
// Compatibility is checked with explicit variance rules:
//
//   - versions: the provider's concrete version must lie in the
//     consumer's accepted range. A consumer that declares a range
//     rejects providers that declare no version (an unversioned
//     provider promises nothing); a provider version with no consumer
//     range always passes.
//   - datatypes: structural subtyping, provider ⊑ requirement.
//     Primitives are invariant; arrays are covariant in length (a
//     longer provider array satisfies a shorter requirement); records
//     use width subtyping (the provider may carry extra fields, and
//     each required field must be structurally satisfied). A consumer
//     requirement rejects providers that declare no datatype.
//
// The flattened primitive shape of a datatype must agree with the
// port's element type and fit in its declared size, which Parse
// enforces, so the structural layer refines — never contradicts — the
// transport layer.
package descriptor

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/manifest"
	"repro/internal/rtos/ipc"
)

// dtKind discriminates dataType nodes.
type dtKind int

const (
	dtInt32 dtKind = iota + 1
	dtByte
	dtArray
	dtStruct
)

// dataType is a parsed structural payload type.
type dataType struct {
	kind   dtKind
	elem   *dataType // array element
	length int       // array length
	fields []dtField // struct fields, name-sorted
}

type dtField struct {
	name string
	typ  *dataType
}

// maxDTDepth bounds type-constructor nesting so hostile descriptors
// cannot stack-overflow the recursive checks.
const maxDTDepth = 32

// Shared primitive nodes: a parsed tree allocates only its array and
// struct nodes. No code modifies a node after parsing.
var (
	int32Type = &dataType{kind: dtInt32}
	byteType  = &dataType{kind: dtByte}
)

// String renders the canonical form: no whitespace, struct fields
// name-sorted. Parse(String(t)) == t, which the fuzz target pins via
// its descriptor render round trip.
func (t *dataType) String() string {
	var buf [128]byte
	return string(t.appendTo(buf[:0]))
}

// appendTo appends the canonical form of t to b.
func (t *dataType) appendTo(b []byte) []byte {
	switch t.kind {
	case dtInt32:
		b = append(b, "int32"...)
	case dtByte:
		b = append(b, "byte"...)
	case dtArray:
		b = t.elem.appendTo(b)
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(t.length), 10)
		b = append(b, ']')
	case dtStruct:
		b = append(b, "struct{"...)
		for i, f := range t.fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, f.name...)
			b = append(b, ':')
			b = f.typ.appendTo(b)
		}
		b = append(b, '}')
	}
	return b
}

// flatten returns the primitive element kind and count of the type
// (what the port buffer must hold). Mixed-primitive types are invalid:
// a port buffer has a single element type.
func (t *dataType) flatten() (ipc.ElemType, int, error) {
	switch t.kind {
	case dtInt32:
		return ipc.Integer, 1, nil
	case dtByte:
		return ipc.Byte, 1, nil
	case dtArray:
		et, n, err := t.elem.flatten()
		return et, n * t.length, err
	case dtStruct:
		var et ipc.ElemType
		total := 0
		for _, f := range t.fields {
			ft, n, err := f.typ.flatten()
			if err != nil {
				return 0, 0, err
			}
			if et == 0 {
				et = ft
			} else if et != ft {
				return 0, 0, fmt.Errorf("mixes %v and %v elements", et, ft)
			}
			total += n
		}
		return et, total, nil
	}
	return 0, 0, fmt.Errorf("invalid datatype node")
}

// satisfies reports whether a provider of type t structurally
// satisfies requirement req (see the package comment for the variance
// rules).
func (t *dataType) satisfies(req *dataType) bool {
	if t.kind != req.kind {
		return false
	}
	switch req.kind {
	case dtInt32, dtByte:
		return true
	case dtArray:
		return t.length >= req.length && t.elem.satisfies(req.elem)
	case dtStruct:
		for _, rf := range req.fields {
			var pf *dataType
			for i := range t.fields {
				if t.fields[i].name == rf.name {
					pf = t.fields[i].typ
					break
				}
			}
			if pf == nil || !pf.satisfies(rf.typ) {
				return false
			}
		}
		return true
	}
	return false
}

// dtParser is a recursive-descent parser over the datatype grammar.
// Whitespace is tolerated between tokens and erased by canonicalising.
type dtParser struct {
	s   string
	pos int
}

func parseDataType(s string) (*dataType, error) {
	p := &dtParser{s: s}
	t, err := p.parseType(0)
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("trailing input at offset %d", p.pos)
	}
	return t, nil
}

func (p *dtParser) skipWS() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *dtParser) ident() string {
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(p.pos > start && c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return p.s[start:p.pos]
}

func (p *dtParser) expect(c byte) error {
	p.skipWS()
	if p.pos >= len(p.s) || p.s[p.pos] != c {
		return fmt.Errorf("expected %q at offset %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

func (p *dtParser) parseType(depth int) (*dataType, error) {
	if depth > maxDTDepth {
		return nil, fmt.Errorf("nesting deeper than %d", maxDTDepth)
	}
	p.skipWS()
	var base *dataType
	switch id := p.ident(); id {
	case "int32":
		base = int32Type
	case "byte":
		base = byteType
	case "struct":
		if err := p.expect('{'); err != nil {
			return nil, err
		}
		st := &dataType{kind: dtStruct}
		seen := map[string]bool{}
		for {
			p.skipWS()
			name := p.ident()
			if name == "" {
				return nil, fmt.Errorf("expected field name at offset %d", p.pos)
			}
			if seen[name] {
				return nil, fmt.Errorf("duplicate field %q", name)
			}
			seen[name] = true
			if err := p.expect(':'); err != nil {
				return nil, err
			}
			ft, err := p.parseType(depth + 1)
			if err != nil {
				return nil, err
			}
			st.fields = append(st.fields, dtField{name: name, typ: ft})
			p.skipWS()
			if p.pos < len(p.s) && p.s[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect('}'); err != nil {
			return nil, err
		}
		slices.SortFunc(st.fields, func(a, b dtField) int {
			return strings.Compare(a.name, b.name)
		})
		base = st
	case "":
		return nil, fmt.Errorf("expected a type at offset %d", p.pos)
	default:
		return nil, fmt.Errorf("unknown type %q (want int32, byte, T[n], or struct{...})", id)
	}
	// Array suffixes wrap left to right: int32[4][2] is two rows of
	// four int32s.
	arrDepth := depth
	for {
		p.skipWS()
		if p.pos >= len(p.s) || p.s[p.pos] != '[' {
			return base, nil
		}
		arrDepth++
		if arrDepth > maxDTDepth {
			return nil, fmt.Errorf("nesting deeper than %d", maxDTDepth)
		}
		p.pos++
		p.skipWS()
		start := p.pos
		for p.pos < len(p.s) && p.s[p.pos] >= '0' && p.s[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.Atoi(p.s[start:p.pos])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("array length at offset %d must be a positive integer", start)
		}
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		base = &dataType{kind: dtArray, elem: base, length: n}
	}
}

// contract is a port's typed annotations in parsed form, compiled by
// compileContract for the port's Direction and never modified after, so
// copies of a Port share it. A port carries one only when every
// annotation it declares compiled, and checks read it in place of the
// strings.
type contract struct {
	// rng is an inport's accepted range; an outport's version is rng.Low.
	rng manifest.Range
	dt  *dataType // nil when the port declares no datatype
}

// compileContract parses a port's version and datatype annotations for
// a port of direction dir: a concrete version on an outport, an
// accepted range on an inport. Either source may be empty. It returns
// nil when both are, with each annotation's parse error. Parse and
// Port.Compile both compile through it.
func compileContract(dir Direction, ver, dt string) (c *contract, verErr, dtErr error) {
	if ver == "" && dt == "" {
		return nil, nil, nil
	}
	c = new(contract)
	if ver != "" {
		switch dir {
		case Out:
			c.rng.Low, verErr = manifest.ParseVersion(ver)
		case In:
			c.rng, verErr = manifest.ParseRange(ver)
		}
	}
	if dt != "" {
		c.dt, dtErr = parseDataType(dt)
	}
	return c, verErr, dtErr
}

// appendVersion appends the canonical form of the version annotation
// compiled for direction dir to b.
func (c *contract) appendVersion(dir Direction, b []byte) []byte {
	if dir == Out {
		return c.rng.Low.AppendTo(b)
	}
	return c.rng.AppendTo(b)
}

// canonical returns src when it already reads as the rendering b, so a
// canonical source is kept without a copy, else b as a new string.
func canonical(src string, b []byte) string {
	if string(b) == src {
		return src
	}
	return string(b)
}

// Compile returns p with its Version and DataType annotations parsed
// into the contract CanSatisfy reads, so matches against it parse
// nothing. Ports from Parse are compiled already; Compile is for ports
// built from other sources, such as a remote provision. A port with an
// annotation that does not parse gets no contract, and each check parses
// its strings again and reports the error, so a compiled port judges
// every pair as its strings do.
func (p Port) Compile() Port {
	c, verErr, dtErr := compileContract(p.Direction, p.Version, p.DataType)
	if verErr != nil || dtErr != nil {
		c = nil
	}
	p.c = c
	return p
}

// mismatch names the typed check a provider/consumer pair fails.
type mismatch uint8

const (
	typedOK       mismatch = iota
	verUndeclared          // consumer range, provider declares no version
	verBadRange            // consumer range does not parse
	verBadVersion          // provider version does not parse
	verOutside             // provider version outside the range
	dtUndeclared           // consumer datatype, provider declares none
	dtBadReq               // consumer datatype does not parse
	dtBadProv              // provider datatype does not parse
	dtUnsatisfied          // provider datatype does not satisfy
)

// typedMatch is the one typed-layer rule CanSatisfy and
// ExplainTypedMismatch share: the provider's version must lie in the
// consumer's range, then the provider's datatype must structurally
// satisfy the consumer's. Each annotation is read from the port's
// contract when compiled there, else parsed from its string (a port
// built by hand); err is the parse error behind a verBad*/dtBad*
// result. On compiled ports it allocates nothing.
func typedMatch(p, in *Port) (mismatch, error) {
	if in.Version != "" {
		if p.Version == "" {
			return verUndeclared, nil
		}
		rng, err := in.versionRange()
		if err != nil {
			return verBadRange, err
		}
		ver, err := p.version()
		if err != nil {
			return verBadVersion, err
		}
		if !rng.Contains(ver) {
			return verOutside, nil
		}
	}
	if in.DataType != "" {
		if p.DataType == "" {
			return dtUndeclared, nil
		}
		req, err := in.structure()
		if err != nil {
			return dtBadReq, err
		}
		prov, err := p.structure()
		if err != nil {
			return dtBadProv, err
		}
		if !prov.satisfies(req) {
			return dtUnsatisfied, nil
		}
	}
	return typedOK, nil
}

// versionRange is the port's Version read as an accepted range.
func (p *Port) versionRange() (manifest.Range, error) {
	if p.c != nil && p.Direction == In {
		return p.c.rng, nil
	}
	return manifest.ParseRange(p.Version)
}

// version is the port's Version read as a concrete version.
func (p *Port) version() (manifest.Version, error) {
	if p.c != nil && p.Direction == Out {
		return p.c.rng.Low, nil
	}
	return manifest.ParseVersion(p.Version)
}

// structure is the port's DataType parsed.
func (p *Port) structure() (*dataType, error) {
	if p.c != nil && p.c.dt != nil {
		return p.c.dt, nil
	}
	return parseDataType(p.DataType)
}

// ExplainTypedMismatch checks the version/datatype annotations of a
// provider outport p against consumer inport in. It returns ("", "")
// when they are compatible, else the layer that failed — "version" or
// "structure" — and a human-readable reason naming the exact
// incompatibility. It only judges the typed layer — callers check the
// base name/interface/type/size match separately. The reason is
// rendered only for a failed match.
func (p Port) ExplainTypedMismatch(in Port) (kind, reason string) {
	m, err := typedMatch(&p, &in)
	switch m {
	case verUndeclared:
		return "version", fmt.Sprintf("consumer requires version %s but provider declares no version", in.Version)
	case verBadRange:
		return "version", fmt.Sprintf("consumer version range %q invalid: %v", in.Version, err)
	case verBadVersion:
		return "version", fmt.Sprintf("provider version %q invalid: %v", p.Version, err)
	case verOutside:
		return "version", fmt.Sprintf("provider version %s outside required range %s", p.Version, in.Version)
	case dtUndeclared:
		return "structure", fmt.Sprintf("consumer requires datatype %s but provider declares none", in.DataType)
	case dtBadReq:
		return "structure", fmt.Sprintf("consumer datatype %q invalid: %v", in.DataType, err)
	case dtBadProv:
		return "structure", fmt.Sprintf("provider datatype %q invalid: %v", p.DataType, err)
	case dtUnsatisfied:
		return "structure", fmt.Sprintf("provider datatype %s does not structurally satisfy %s", p.DataType, in.DataType)
	}
	return "", ""
}

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
	"sort"
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

// String renders the canonical form: no whitespace, struct fields
// name-sorted. Parse(String(t)) == t, which the fuzz target pins via
// the descriptor Render round trip.
func (t *dataType) String() string {
	var b strings.Builder
	t.render(&b)
	return b.String()
}

func (t *dataType) render(b *strings.Builder) {
	switch t.kind {
	case dtInt32:
		b.WriteString("int32")
	case dtByte:
		b.WriteString("byte")
	case dtArray:
		t.elem.render(b)
		fmt.Fprintf(b, "[%d]", t.length)
	case dtStruct:
		b.WriteString("struct{")
		for i, f := range t.fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f.name)
			b.WriteByte(':')
			f.typ.render(b)
		}
		b.WriteByte('}')
	}
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
		base = &dataType{kind: dtInt32}
	case "byte":
		base = &dataType{kind: dtByte}
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
		sort.Slice(st.fields, func(i, j int) bool {
			return st.fields[i].name < st.fields[j].name
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

// ExplainTypedMismatch checks the version/datatype annotations of a
// provider outport p against consumer inport in. It returns ("", "")
// when they are compatible, else the layer that failed — "version" or
// "structure" — and a human-readable reason naming the exact
// incompatibility. It only judges the typed layer — callers check the
// base name/interface/type/size match separately.
func (p Port) ExplainTypedMismatch(in Port) (kind, reason string) {
	if in.Version != "" {
		if p.Version == "" {
			return "version", fmt.Sprintf("consumer requires version %s but provider declares no version", in.Version)
		}
		rng, err := manifest.ParseRange(in.Version)
		if err != nil {
			return "version", fmt.Sprintf("consumer version range %q invalid: %v", in.Version, err)
		}
		ver, err := manifest.ParseVersion(p.Version)
		if err != nil {
			return "version", fmt.Sprintf("provider version %q invalid: %v", p.Version, err)
		}
		if !rng.Contains(ver) {
			return "version", fmt.Sprintf("provider version %s outside required range %s", p.Version, in.Version)
		}
	}
	if in.DataType != "" {
		if p.DataType == "" {
			return "structure", fmt.Sprintf("consumer requires datatype %s but provider declares none", in.DataType)
		}
		req, err := parseDataType(in.DataType)
		if err != nil {
			return "structure", fmt.Sprintf("consumer datatype %q invalid: %v", in.DataType, err)
		}
		prov, err := parseDataType(p.DataType)
		if err != nil {
			return "structure", fmt.Sprintf("provider datatype %q invalid: %v", p.DataType, err)
		}
		if !prov.satisfies(req) {
			return "structure", fmt.Sprintf("provider datatype %s does not structurally satisfy %s", p.DataType, in.DataType)
		}
	}
	return "", ""
}

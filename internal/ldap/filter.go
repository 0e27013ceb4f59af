// Package ldap implements RFC 1960 string filters as used by the OSGi
// service registry: (&(objectClass=foo)(ranking>=5)), (|(a=1)(b=*x*)),
// (!(enabled=false)), presence (attr=*) and substring matches.
//
// Matching is performed against property maps of the kinds OSGi allows:
// strings, booleans, signed integers, floats, and slices of those (a slice
// matches if any element matches). Attribute names are case-insensitive,
// as in the OSGi specification.
package ldap

import (
	"errors"
	"fmt"
	"strings"
)

// Op identifies a filter node kind.
type Op int

// Filter node kinds.
const (
	OpAnd Op = iota + 1
	OpOr
	OpNot
	OpEqual
	OpApprox
	OpGreaterEq
	OpLessEq
	OpPresent
	OpSubstring
)

func (o Op) String() string {
	switch o {
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpNot:
		return "!"
	case OpEqual:
		return "="
	case OpApprox:
		return "~="
	case OpGreaterEq:
		return ">="
	case OpLessEq:
		return "<="
	case OpPresent:
		return "=*"
	case OpSubstring:
		return "=sub"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Filter is a parsed RFC 1960 filter. Filters are immutable once parsed
// and safe for concurrent use.
type Filter struct {
	op       Op
	children []*Filter // for And/Or/Not
	attr     string    // lower-cased attribute name
	value    string    // literal for comparisons
	subParts []string  // for substring: parts between '*'s; "" at ends means open
	src      string
}

// String returns the canonical source text of the filter.
func (f *Filter) String() string { return f.src }

// ErrEmptyFilter is returned when the input is empty or blank.
var ErrEmptyFilter = errors.New("ldap: empty filter")

// SyntaxError describes a malformed filter string.
type SyntaxError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("ldap: %s at position %d in %q", e.Msg, e.Pos, e.Input)
}

// Parse parses an RFC 1960 filter string.
func Parse(s string) (*Filter, error) {
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return nil, ErrEmptyFilter
	}
	p := &parser{in: trimmed}
	f, err := p.parseFilter()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, p.errorf("trailing characters")
	}
	return f, nil
}

// MustParse parses a filter known to be valid at compile time; it panics on
// error and is intended for package-level constants in tests and tools.
func MustParse(s string) *Filter {
	f, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return f
}

type parser struct {
	in  string
	pos int
}

func (p *parser) errorf(format string, args ...any) error {
	return &SyntaxError{Input: p.in, Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) expect(c byte) error {
	if p.pos >= len(p.in) || p.in[p.pos] != c {
		return p.errorf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *parser) parseFilter() (*Filter, error) {
	p.skipSpace()
	start := p.pos
	if err := p.expect('('); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.in) {
		return nil, p.errorf("unterminated filter")
	}
	var f *Filter
	var err error
	switch p.in[p.pos] {
	case '&':
		p.pos++
		f, err = p.parseComposite(OpAnd)
	case '|':
		p.pos++
		f, err = p.parseComposite(OpOr)
	case '!':
		p.pos++
		var inner *Filter
		inner, err = p.parseFilter()
		if err == nil {
			f = &Filter{op: OpNot, children: []*Filter{inner}}
		}
	default:
		f, err = p.parseSimple()
	}
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	f.src = p.in[start:p.pos]
	return f, nil
}

func (p *parser) parseComposite(op Op) (*Filter, error) {
	var kids []*Filter
	for {
		p.skipSpace()
		if p.pos < len(p.in) && p.in[p.pos] == ')' {
			break
		}
		k, err := p.parseFilter()
		if err != nil {
			return nil, err
		}
		kids = append(kids, k)
	}
	if len(kids) == 0 {
		return nil, p.errorf("composite %v with no operands", op)
	}
	return &Filter{op: op, children: kids}, nil
}

// parseSimple handles attr=value, attr~=value, attr>=value, attr<=value,
// attr=*, and attr=*sub*strings*.
func (p *parser) parseSimple() (*Filter, error) {
	attrStart := p.pos
	for p.pos < len(p.in) && !strings.ContainsRune("=<>~()", rune(p.in[p.pos])) {
		p.pos++
	}
	attr := strings.TrimSpace(p.in[attrStart:p.pos])
	if attr == "" {
		return nil, p.errorf("missing attribute name")
	}
	if p.pos >= len(p.in) {
		return nil, p.errorf("missing operator")
	}
	var op Op
	switch p.in[p.pos] {
	case '=':
		op = OpEqual
		p.pos++
	case '~':
		op = OpApprox
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
	case '>':
		op = OpGreaterEq
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
	case '<':
		op = OpLessEq
		p.pos++
		if err := p.expect('='); err != nil {
			return nil, err
		}
	default:
		return nil, p.errorf("bad operator %q", string(p.in[p.pos]))
	}
	value, hasStar, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	lattr := strings.ToLower(attr)
	if op == OpEqual && hasStar {
		if value == "*" {
			return &Filter{op: OpPresent, attr: lattr}, nil
		}
		return &Filter{op: OpSubstring, attr: lattr, subParts: splitSub(value)}, nil
	}
	if hasStar {
		return nil, p.errorf("wildcard not allowed with %v", op)
	}
	return &Filter{op: op, attr: lattr, value: value}, nil
}

// parseValue reads a value up to the closing ')', honouring backslash
// escapes per RFC 1960 (\(, \), \*, \\). It reports whether an unescaped
// '*' occurred; the returned string keeps unescaped '*' characters and
// substitutes \x01 for escaped '*' so splitSub can tell them apart, then
// restores them.
func (p *parser) parseValue() (string, bool, error) {
	var b strings.Builder
	hasStar := false
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		switch c {
		case ')':
			return b.String(), hasStar, nil
		case '(':
			return "", false, p.errorf("unescaped '(' in value")
		case '\\':
			p.pos++
			if p.pos >= len(p.in) {
				return "", false, p.errorf("dangling escape")
			}
			esc := p.in[p.pos]
			if esc == '*' {
				b.WriteByte(escapedStar)
			} else {
				b.WriteByte(esc)
			}
			p.pos++
		case '*':
			hasStar = true
			b.WriteByte(c)
			p.pos++
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return "", false, p.errorf("unterminated value")
}

// escapedStar is an in-band marker for a literal '*' that was escaped in
// the source; it cannot collide with filter text because control bytes are
// not meaningful in RFC 1960 values.
const escapedStar = '\x01'

func unescapeStars(s string) string {
	return strings.ReplaceAll(s, string(rune(escapedStar)), "*")
}

// splitSub splits a substring pattern on unescaped '*'s. The resulting
// slice alternates fixed parts; empty leading/trailing entries mean the
// match is open at that end.
func splitSub(pattern string) []string {
	parts := strings.Split(pattern, "*")
	for i, p := range parts {
		parts[i] = unescapeStars(p)
	}
	return parts
}

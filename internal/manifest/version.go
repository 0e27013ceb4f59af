// Package manifest implements OSGi bundle metadata: versions, version
// ranges, and the manifest fields the framework resolver consumes (the
// symbolic name, package imports and exports, and the component
// descriptor resources). Bundles are built in Go; no MANIFEST.MF text is
// parsed.
package manifest

import (
	"fmt"
	"strconv"
	"strings"
)

// Version is an OSGi version: major.minor.micro with an optional
// qualifier. The zero value is version 0.0.0.
type Version struct {
	Major, Minor, Micro int
	Qualifier           string
}

// ParseVersion parses "major[.minor[.micro[.qualifier]]]".
func ParseVersion(s string) (Version, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Version{}, fmt.Errorf("manifest: empty version")
	}
	var v Version
	rest, more := s, true
	for i, seg := range [...]*int{&v.Major, &v.Minor, &v.Micro} {
		var part string
		part, rest, more = strings.Cut(rest, ".")
		n, err := parseVersionPart(part)
		if err != nil {
			return Version{}, fmt.Errorf("manifest: bad %s in %q: %w", segmentNames[i], s, err)
		}
		*seg = n
		if !more {
			return v, nil
		}
	}
	v.Qualifier = rest
	if v.Qualifier == "" {
		return Version{}, fmt.Errorf("manifest: empty qualifier in %q", s)
	}
	if !validQualifier(v.Qualifier) {
		return Version{}, fmt.Errorf("manifest: qualifier %q in %q must be letters, digits, '_' or '-'", v.Qualifier, s)
	}
	return v, nil
}

var segmentNames = [...]string{"major", "minor", "micro"}

// validQualifier reports whether q is in the OSGi qualifier grammar
// [A-Za-z0-9_-]+. Anything wider could carry a separator of an enclosing
// syntax: a range's ',' or the ':' of a cluster provision note.
func validQualifier(q string) bool {
	for i := 0; i < len(q); i++ {
		c := q[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

func parseVersionPart(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative segment %d", n)
	}
	return n, nil
}

// MustParseVersion parses a version known to be valid; it panics on error.
func MustParseVersion(s string) Version {
	v, err := ParseVersion(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Compare returns -1, 0 or 1 ordering v against o. Qualifiers compare
// lexically, absent qualifier sorting first (OSGi semantics).
func (v Version) Compare(o Version) int {
	if v.Major != o.Major {
		return sign(v.Major - o.Major)
	}
	if v.Minor != o.Minor {
		return sign(v.Minor - o.Minor)
	}
	if v.Micro != o.Micro {
		return sign(v.Micro - o.Micro)
	}
	return strings.Compare(v.Qualifier, o.Qualifier)
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// String renders the version in canonical form.
func (v Version) String() string {
	var buf [32]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends the canonical form of v to b.
func (v Version) AppendTo(b []byte) []byte {
	b = strconv.AppendInt(b, int64(v.Major), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(v.Minor), 10)
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(v.Micro), 10)
	if v.Qualifier != "" {
		b = append(b, '.')
		b = append(b, v.Qualifier...)
	}
	return b
}

// Range is an OSGi version range: either a single floor version
// ("1.2" == [1.2, ∞)) or an interval like "[1.0,2.0)".
type Range struct {
	Low, High         Version
	IncLow, IncHigh   bool
	Unbounded         bool // no upper bound
	parsedFromDefault bool
}

// AnyVersion matches every version (the default when a header omits one).
var AnyVersion = Range{Unbounded: true, IncLow: true, parsedFromDefault: true}

// ParseRange parses an OSGi version range.
func ParseRange(s string) (Range, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return AnyVersion, nil
	}
	if s[0] != '[' && s[0] != '(' {
		v, err := ParseVersion(s)
		if err != nil {
			return Range{}, err
		}
		return Range{Low: v, IncLow: true, Unbounded: true}, nil
	}
	if len(s) < 2 {
		return Range{}, fmt.Errorf("manifest: bad range %q", s)
	}
	last := s[len(s)-1]
	if last != ']' && last != ')' {
		return Range{}, fmt.Errorf("manifest: range %q missing terminator", s)
	}
	lowSrc, highSrc, ok := strings.Cut(s[1:len(s)-1], ",")
	if !ok || strings.Contains(highSrc, ",") {
		return Range{}, fmt.Errorf("manifest: range %q must have two endpoints", s)
	}
	low, err := ParseVersion(lowSrc)
	if err != nil {
		return Range{}, fmt.Errorf("manifest: range %q low: %w", s, err)
	}
	high, err := ParseVersion(highSrc)
	if err != nil {
		return Range{}, fmt.Errorf("manifest: range %q high: %w", s, err)
	}
	r := Range{
		Low:     low,
		High:    high,
		IncLow:  s[0] == '[',
		IncHigh: last == ']',
	}
	if c := low.Compare(high); c > 0 || (c == 0 && !(r.IncLow && r.IncHigh)) {
		return Range{}, fmt.Errorf("manifest: range %q is empty", s)
	}
	return r, nil
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v Version) bool {
	cLow := v.Compare(r.Low)
	if cLow < 0 || (cLow == 0 && !r.IncLow) {
		return false
	}
	if r.Unbounded {
		return true
	}
	cHigh := v.Compare(r.High)
	if cHigh > 0 || (cHigh == 0 && !r.IncHigh) {
		return false
	}
	return true
}

// String renders the range.
func (r Range) String() string {
	var buf [64]byte
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the rendering of r to b: its floor version when it
// has no upper bound, else the interval.
func (r Range) AppendTo(b []byte) []byte {
	if r.Unbounded {
		if r.parsedFromDefault {
			return append(b, "0.0.0"...)
		}
		return r.Low.AppendTo(b)
	}
	lo, hi := byte('('), byte(')')
	if r.IncLow {
		lo = '['
	}
	if r.IncHigh {
		hi = ']'
	}
	b = append(b, lo)
	b = r.Low.AppendTo(b)
	b = append(b, ',')
	b = r.High.AppendTo(b)
	return append(b, hi)
}

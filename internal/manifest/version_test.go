package manifest

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseVersion(t *testing.T) {
	cases := []struct {
		in   string
		want Version
	}{
		{"1", Version{Major: 1}},
		{"1.2", Version{Major: 1, Minor: 2}},
		{"1.2.3", Version{Major: 1, Minor: 2, Micro: 3}},
		{"1.2.3.beta", Version{Major: 1, Minor: 2, Micro: 3, Qualifier: "beta"}},
		{"1.2.3.RC_1-b2", Version{Major: 1, Minor: 2, Micro: 3, Qualifier: "RC_1-b2"}},
		{" 3.2.1 ", Version{Major: 3, Minor: 2, Micro: 1}},
		{"0.0.0", Version{}},
	}
	for _, c := range cases {
		got, err := ParseVersion(c.in)
		if err != nil {
			t.Errorf("ParseVersion(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseVersion(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseVersionInvalid(t *testing.T) {
	for _, in := range []string{"", "a", "1.a", "1.2.x", "-1", "1.-2", "1.2.3.",
		"1.0.0.a:b", "1.0.0.a,b", "1.0.0.a b", "1.0.0.a.b", "1.0.0.é", "1.0.0.a)"} {
		if _, err := ParseVersion(in); err == nil {
			t.Errorf("ParseVersion(%q) succeeded", in)
		}
	}
}

func TestMustParseVersionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustParseVersion("bogus")
}

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.0.0", "1.0.0", 0},
		{"1.0.0", "2.0.0", -1},
		{"2.0.0", "1.9.9", 1},
		{"1.1.0", "1.0.9", 1},
		{"1.0.1", "1.0.2", -1},
		{"1.0.0", "1.0.0.beta", -1},
		{"1.0.0.alpha", "1.0.0.beta", -1},
		{"1.0.0.rc1", "1.0.0.rc1", 0},
	}
	for _, c := range cases {
		a, b := MustParseVersion(c.a), MustParseVersion(c.b)
		if got := a.Compare(b); got != c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := b.Compare(a); got != -c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestVersionString(t *testing.T) {
	if got := MustParseVersion("1.2").String(); got != "1.2.0" {
		t.Errorf("String = %q, want 1.2.0", got)
	}
	if got := MustParseVersion("1.2.3.q").String(); got != "1.2.3.q" {
		t.Errorf("String = %q", got)
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in       string
		contains []string
		excludes []string
	}{
		{"", []string{"0.0.0", "99.0.0"}, nil},
		{"1.2", []string{"1.2.0", "2.0.0", "99.0.0"}, []string{"1.1.9", "0.5.0"}},
		{"[1.0,2.0)", []string{"1.0.0", "1.9.9"}, []string{"0.9.9", "2.0.0", "2.1.0"}},
		{"[1.0,2.0]", []string{"1.0.0", "2.0.0"}, []string{"2.0.1"}},
		{"(1.0,2.0)", []string{"1.0.1", "1.5.0"}, []string{"1.0.0", "2.0.0"}},
		{"[1.0,1.0]", []string{"1.0.0"}, []string{"1.0.1", "0.9.9"}},
	}
	for _, c := range cases {
		r, err := ParseRange(c.in)
		if err != nil {
			t.Errorf("ParseRange(%q): %v", c.in, err)
			continue
		}
		for _, v := range c.contains {
			if !r.Contains(MustParseVersion(v)) {
				t.Errorf("range %q should contain %s", c.in, v)
			}
		}
		for _, v := range c.excludes {
			if r.Contains(MustParseVersion(v)) {
				t.Errorf("range %q should exclude %s", c.in, v)
			}
		}
	}
}

func TestParseRangeInvalid(t *testing.T) {
	for _, in := range []string{"[1.0", "[1.0,2.0", "[2.0,1.0]", "(1.0,1.0)", "[1.0,1.0)", "[a,b]", "[1.0,2.0,3.0]", "["} {
		if _, err := ParseRange(in); err == nil {
			t.Errorf("ParseRange(%q) succeeded", in)
		}
	}
}

func TestRangeString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"[1.0,2.0)", "[1.0.0,2.0.0)"},
		{"(1.0,2.0]", "(1.0.0,2.0.0]"},
		{"1.5", "1.5.0"},
		{"", "0.0.0"},
	}
	for _, c := range cases {
		r, err := ParseRange(c.in)
		if err != nil {
			t.Fatalf("ParseRange(%q): %v", c.in, err)
		}
		if got := r.String(); got != c.want {
			t.Errorf("Range(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

// Property: Compare is antisymmetric and consistent with Contains for
// single-version ranges.
func TestVersionCompareProperty(t *testing.T) {
	prop := func(a1, a2, a3, b1, b2, b3 uint8) bool {
		a := Version{Major: int(a1 % 8), Minor: int(a2 % 8), Micro: int(a3 % 8)}
		b := Version{Major: int(b1 % 8), Minor: int(b2 % 8), Micro: int(b3 % 8)}
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		exact := Range{Low: a, High: a, IncLow: true, IncHigh: true}
		return exact.Contains(b) == (a.Compare(b) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the strconv-based renderings match the fmt forms they
// replaced, for versions with and without a qualifier and for bounded
// and unbounded ranges.
func TestRenderMatchesFmt(t *testing.T) {
	fmtVersion := func(v Version) string {
		base := fmt.Sprintf("%d.%d.%d", v.Major, v.Minor, v.Micro)
		if v.Qualifier != "" {
			return base + "." + v.Qualifier
		}
		return base
	}
	prop := func(a1, a2, a3 uint16, q bool, b1 uint8, incLo, incHi, unb bool) bool {
		v := Version{Major: int(a1), Minor: int(a2), Micro: int(a3)}
		if q {
			v.Qualifier = "rc-1"
		}
		w := Version{Major: int(a1) + int(b1) + 1}
		r := Range{Low: v, High: w, IncLow: incLo, IncHigh: incHi, Unbounded: unb}
		want := fmtVersion(v)
		if !unb {
			lo, hi := "(", ")"
			if incLo {
				lo = "["
			}
			if incHi {
				hi = "]"
			}
			want = fmt.Sprintf("%s%s,%s%s", lo, fmtVersion(v), fmtVersion(w), hi)
		}
		return v.String() == fmtVersion(v) && r.String() == want &&
			string(r.AppendTo([]byte("x"))) == "x"+want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// parseVersionOracle is ParseVersion as a strings.SplitN parse, the form
// the Cut-based one replaced, with the qualifier grammar check.
func parseVersionOracle(s string) (Version, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Version{}, fmt.Errorf("manifest: empty version")
	}
	parts := strings.SplitN(s, ".", 4)
	var v Version
	var err error
	if v.Major, err = parseVersionPart(parts[0]); err != nil {
		return Version{}, fmt.Errorf("manifest: bad major in %q: %w", s, err)
	}
	if len(parts) > 1 {
		if v.Minor, err = parseVersionPart(parts[1]); err != nil {
			return Version{}, fmt.Errorf("manifest: bad minor in %q: %w", s, err)
		}
	}
	if len(parts) > 2 {
		if v.Micro, err = parseVersionPart(parts[2]); err != nil {
			return Version{}, fmt.Errorf("manifest: bad micro in %q: %w", s, err)
		}
	}
	if len(parts) > 3 {
		v.Qualifier = parts[3]
		if v.Qualifier == "" {
			return Version{}, fmt.Errorf("manifest: empty qualifier in %q", s)
		}
		if !validQualifier(v.Qualifier) {
			return Version{}, fmt.Errorf("manifest: qualifier %q in %q must be letters, digits, '_' or '-'", v.Qualifier, s)
		}
	}
	return v, nil
}

// parseRangeOracle is ParseRange over strings.Split and
// parseVersionOracle.
func parseRangeOracle(s string) (Range, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return AnyVersion, nil
	}
	if s[0] != '[' && s[0] != '(' {
		v, err := parseVersionOracle(s)
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
	parts := strings.Split(s[1:len(s)-1], ",")
	if len(parts) != 2 {
		return Range{}, fmt.Errorf("manifest: range %q must have two endpoints", s)
	}
	low, err := parseVersionOracle(parts[0])
	if err != nil {
		return Range{}, fmt.Errorf("manifest: range %q low: %w", s, err)
	}
	high, err := parseVersionOracle(parts[1])
	if err != nil {
		return Range{}, fmt.Errorf("manifest: range %q high: %w", s, err)
	}
	r := Range{Low: low, High: high, IncLow: s[0] == '[', IncHigh: last == ']'}
	if c := low.Compare(high); c > 0 || (c == 0 && !(r.IncLow && r.IncHigh)) {
		return Range{}, fmt.Errorf("manifest: range %q is empty", s)
	}
	return r, nil
}

// TestParseMatchesSplitOracle holds ParseVersion and ParseRange to their
// Split-based forms, value and error text, on seeded strings spliced from
// version and range fragments.
func TestParseMatchesSplitOracle(t *testing.T) {
	frags := []string{"0", "1", "2", "10", "-1", "+3", ".", ".", ".", ",", " ", "[", "(", "]", ")", "a", "rc-1", "x_y", ":", "é", "1.2", "2.0.0"}
	rng := rand.New(rand.NewSource(5))
	var versions, intervals int
	for i := 0; i < 50000; i++ {
		splice := func(n int) string {
			var b strings.Builder
			for ; n >= 0; n-- {
				b.WriteString(frags[rng.Intn(len(frags))])
			}
			return b.String()
		}
		s := splice(rng.Intn(9))
		if rng.Intn(2) == 0 { // an interval's shape around spliced ends
			s = string("[("[rng.Intn(2)]) + splice(rng.Intn(3)) + "," + splice(rng.Intn(3)) + string("])"[rng.Intn(2)])
		}
		v, verr := ParseVersion(s)
		wv, werr := parseVersionOracle(s)
		if fmt.Sprint(verr) != fmt.Sprint(werr) || v != wv {
			t.Fatalf("ParseVersion(%q) = %+v, %v; oracle %+v, %v", s, v, verr, wv, werr)
		}
		r, rerr := ParseRange(s)
		wr, wrerr := parseRangeOracle(s)
		if fmt.Sprint(rerr) != fmt.Sprint(wrerr) || r != wr {
			t.Fatalf("ParseRange(%q) = %+v, %v; oracle %+v, %v", s, r, rerr, wr, wrerr)
		}
		if verr == nil {
			versions++
		}
		if rerr == nil && !r.Unbounded {
			intervals++
		}
	}
	t.Logf("%d valid versions, %d valid intervals", versions, intervals)
	if versions < 1000 || intervals < 20 {
		t.Fatalf("generator covers too little: %d valid versions, %d valid intervals", versions, intervals)
	}
}

package policy

import (
	"reflect"
	"testing"
)

// FuzzParseDist drives ParseDist with mutated dist strings, seeded from
// every family plus malformed spellings. Two properties are checked:
// malformed input returns an error (never a panic, never a nil Dist
// without one), and every accepted Dist round-trips through its
// canonical String form: ParseDist(d.String()) equals d.
func FuzzParseDist(f *testing.F) {
	for _, s := range []string{
		"normal(0.3,0.05)",
		"lognormal(-1.2,0.4)",
		"empirical(0.1:1,0.2:2,0.4:1)",
		" normal( 1e-3 , 0 ) ",
		"empirical(0:0.5)",
		"normal(0.3,-0.05)",
		"normal(-0.1,0.05)",
		"lognormal(NaN,1)",
		"normal(Inf,1)",
		"empirical()",
		"empirical(0.1:0,:)",
		"empirical(0.1:1:2)",
		"weibull(1,2)",
		"normal(0.3)",
		"normal(0.3,0.05",
		"()",
		")(",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDist(s)
		if err != nil {
			return
		}
		if d == nil {
			t.Fatalf("ParseDist(%q) returned neither a Dist nor an error", s)
		}
		canon := d.String()
		d2, err := ParseDist(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q does not re-parse: %v", canon, s, err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip of %q through %q: got %+v, want %+v", s, canon, d2, d)
		}
	})
}

// Package fix holds one declaration of each kind the lean gate must
// classify.
package fix

// T is live: the root calls New.
type T struct{ n int }

// New is live: the root calls it.
func New() *T { return &T{} }

// Used is an exported method used only from the root.
func (t *T) Used() { t.n++ }

// String is live only because T is live and implements fmt.Stringer.
func (t *T) String() string { return "T" }

// Dead is an unreferenced method.
func (t *T) Dead() { helper() }

// helper is called only from Dead, so it is dead too.
func helper() {}

// sizer is an interface nothing uses.
type sizer interface{ Size() int }

// Size would satisfy sizer, but no value is ever used as one, so Size is
// dead with it.
func (t *T) Size() int { return t.n }

// Orphan is an unreferenced type; its String dies with it.
type Orphan struct{}

func (Orphan) String() string { return "orphan" }

// The root names Second, which keeps First (Second's value depends on
// it) but not unusedConst.
const (
	First = iota
	Second
	unusedConst
)

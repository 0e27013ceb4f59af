package drcom

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// leanSeams lists the internal declarations production does not reach but
// a test in another package needs, one reason each. A seam is a root, so
// what it calls stays live with it. The list is not a place to park dead
// code: a declaration only its own package's tests use belongs in a
// _test.go file, and a test that can read a production path instead is
// rewritten. Keep it to at most leanMaxSeams entries.
var leanSeams = []struct {
	keys []string
	why  string
}{
	{[]string{"cluster.Cluster.TriggerRemote"},
		"cluster tests send a remote trigger over the network; removing it reaches into net's Trigger kind and the kernel's dropped-trigger ledger"},
	{[]string{"cluster.Cluster.StitchDigest"},
		"CI's ClusterStitchedDigestPinned pins the cross-node causal chains; the ID-free span line it hashes is private to obs"},
	{[]string{"rtos.Task.ExecScale", "rtos.Task.Stalled"},
		"rtos live-state reads: fault's injector tests check the perturbation the injector applied to the task"},
}

const leanMaxSeams = 15

// TestInternalDeclarationsHaveProductionCallers keeps unreachable and
// test-only code out of production. It type-checks every non-test package
// of the repository, the perfbench module included, and fails for each
// declaration under internal/ (package-level func, type, var and const,
// and method) that no root reaches; see leanProgram.dead for the rules.
func TestInternalDeclarationsHaveProductionCallers(t *testing.T) {
	if len(leanSeams) > leanMaxSeams {
		t.Errorf("%d seam entries, at most %d", len(leanSeams), leanMaxSeams)
	}
	var seams []string
	for _, s := range leanSeams {
		if s.why == "" {
			t.Errorf("seam %v has no reason", s.keys)
		}
		seams = append(seams, s.keys...)
	}
	prog, err := loadLean("repro", ".")
	if err != nil {
		t.Fatal(err)
	}
	unseamed := prog.dead(nil)
	if prog.checked == 0 {
		t.Fatal("no declarations found under internal/; run from the repository root")
	}
	for _, key := range seams {
		if !prog.declared[key] {
			t.Errorf("seam %s names no declaration", key)
		} else if _, ok := unseamed[key]; !ok {
			t.Errorf("seam %s is reachable from production; drop it from leanSeams", key)
		}
	}
	var dead []leanDecl
	for _, d := range prog.dead(seams) {
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	for _, d := range dead {
		t.Errorf("%s: %s is unreachable from cmd/, examples/, perfbench/ and the root package", d.pos, d.key)
	}
}

// TestLeanGateFixture runs the classifier on testdata/lean, a module whose
// dead set is known, so a change to the rules shows as a changed set.
func TestLeanGateFixture(t *testing.T) {
	prog, err := loadLean("leanfix", filepath.Join("testdata", "lean"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range prog.dead(nil) {
		got = append(got, key)
	}
	sort.Strings(got)
	want := []string{
		"fix.Orphan",        // an unreferenced type ...
		"fix.Orphan.String", // ... whose Stringer method dies with it
		"fix.T.Dead",        // an unreferenced method
		"fix.T.Size",        // satisfies only a dead interface
		"fix.helper",        // called only from T.Dead
		"fix.sizer",         // an interface nothing uses
		"fix.unusedConst",   // after the last live const of its iota group
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("dead set:\n got %v\nwant %v", got, want)
	}
}

// leanProgram is every non-test package under one directory, type-checked
// from source. Import paths under the module path resolve to that
// directory; everything else is the standard library.
type leanProgram struct {
	module, dir string
	fset        *token.FileSet
	std         types.ImporterFrom
	pkgs        map[string]*leanPkg
	order       []*leanPkg

	checked  int             // declarations under internal/
	declared map[string]bool // their keys
}

type leanPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type leanDecl struct {
	key, pos string
}

func loadLean(module, dir string) (*leanProgram, error) {
	fset := token.NewFileSet()
	p := &leanProgram{
		module: module, dir: dir, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*leanPkg{},
	}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		switch e.Name() {
		case ".git", ".bench_build", "testdata":
			if path != dir {
				return filepath.SkipDir
			}
		}
		rel, _ := filepath.Rel(dir, path)
		imp := module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = p.load(imp)
		return err
	})
	return p, err
}

func (p *leanProgram) Import(path string) (*types.Package, error) {
	return p.ImportFrom(path, "", 0)
}

func (p *leanProgram) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != p.module && !strings.HasPrefix(path, p.module+"/") {
		return p.std.ImportFrom(path, dir, mode)
	}
	lp, err := p.load(path)
	if err != nil {
		return nil, err
	}
	if lp == nil {
		return nil, &os.PathError{Op: "import", Path: path, Err: fs.ErrNotExist}
	}
	return lp.types, nil
}

// load parses and type-checks the non-test files of one package, or
// returns nil when its directory holds none.
func (p *leanProgram) load(path string) (*leanPkg, error) {
	if lp, ok := p.pkgs[path]; ok {
		return lp, nil
	}
	p.pkgs[path] = nil
	dir := filepath.Join(p.dir, filepath.FromSlash(strings.TrimPrefix(path[len(p.module):], "/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	lp := &leanPkg{path: path}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		lp.files = append(lp.files, f)
	}
	if len(lp.files) == 0 {
		return nil, nil
	}
	lp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: p}
	if lp.types, err = conf.Check(path, p.fset, lp.files, lp.info); err != nil {
		return nil, err
	}
	p.pkgs[path] = lp
	p.order = append(p.order, lp)
	return lp, nil
}

// dead returns the declarations under internal/ that no root reaches,
// by key ("pkg.Name" or "pkg.Type.Method", pkg relative to internal/).
// The declarations named by seams count as roots.
//
//   - Roots are every non-test declaration outside internal/, plus init
//     funcs and blank vars anywhere: they run whether or not named.
//   - A declaration is live once a live declaration names it (the
//     closure is transitive, so code reached only from dead code is
//     dead). A const in an iota group keeps every const before it.
//   - A method of a live named type is live when the type, or a pointer
//     to it, implements an interface holding that method: an interface
//     declared outside internal/ (the standard library included), an
//     interface literal, or a live internal interface. Methods of a
//     generic type count only where named.
func (p *leanProgram) dead(seams []string) map[string]leanDecl {
	refs := map[types.Object][]types.Object{}
	decl := map[types.Object]leanDecl{}
	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if !live[o] {
			live[o] = true
			queue = append(queue, o)
		}
	}
	var ifaces []*types.Interface
	named := map[*ast.InterfaceType]bool{} // interface types that are declared, not literal
	var roots []ast.Node
	p.checked, p.declared = 0, map[string]bool{}

	for _, lp := range p.order {
		uses := func(n ast.Node) (out []types.Object) {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := origin(lp.info.Uses[id]); o != nil && o.Pkg() != nil && p.pkgs[o.Pkg().Path()] != nil {
						out = append(out, o)
					}
				}
				return true
			})
			return out
		}
		internal := strings.Contains(lp.path+"/", "/internal/") // checked, not a root
		declare := func(id *ast.Ident, n ast.Node, extra []types.Object) {
			o := lp.info.Defs[id]
			if id.Name == "_" || o == nil {
				roots = append(roots, n)
				return
			}
			refs[o] = append(uses(n), extra...)
			if !internal {
				mark(o)
				return
			}
			key := lp.path[strings.LastIndex(lp.path+"/", "/internal/")+len("/internal/"):] + "."
			if f, ok := o.(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					key += t.(*types.Named).Obj().Name() + "."
				}
			}
			key += o.Name()
			decl[o] = leanDecl{key: key, pos: p.fset.Position(id.Pos()).String()}
			p.declared[key] = true
			p.checked++
		}
		for _, f := range lp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, d)
						continue
					}
					declare(d.Name, d, nil)
				case *ast.GenDecl:
					positional := d.Tok == token.CONST && iotaGroup(d)
					var prev []types.Object // the previous spec of an iota group
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s, nil)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								named[it] = true
							}
						case *ast.ValueSpec:
							var cur []types.Object
							for _, id := range s.Names {
								declare(id, s, prev)
								if o := lp.info.Defs[id]; o != nil {
									cur = append(cur, o)
								}
							}
							if positional {
								prev = cur
							}
						}
					}
				}
			}
		}
		for e, tv := range lp.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
				if lit, ok := e.(*ast.InterfaceType); ok && !named[lit] {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, n := range roots {
			for _, o := range uses(n) {
				mark(o)
			}
		}
		roots = roots[:0]
	}
	for o, d := range decl {
		for _, key := range seams {
			if d.key == key {
				mark(o)
			}
		}
	}
	// Interfaces from outside the loaded packages count from the start.
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if p.pkgs[pkg.Path()] == nil {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !isGeneric(tn.Type()) {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, lp := range p.order {
		walk(lp.types)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	var liveTypes []*types.Named // live named non-interface types
	for {
		for len(queue) > 0 {
			o := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, r := range refs[o] {
				mark(r)
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 && !isGeneric(n) {
					ifaces = append(ifaces, it)
				}
			} else if n.NumMethods() > 0 && !isGeneric(n) {
				liveTypes = append(liveTypes, n)
			}
		}
		for _, n := range liveTypes {
			for _, it := range ifaces {
				if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if o, _, _ := types.LookupFieldOrMethod(n, true, m.Pkg(), m.Name()); o != nil {
						mark(origin(o))
					}
				}
			}
		}
		if len(queue) == 0 {
			break
		}
	}

	out := map[string]leanDecl{}
	for o, d := range decl {
		if !live[o] {
			out[d.key] = d
		}
	}
	return out
}

// origin maps an instantiated generic object back to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// iotaGroup reports whether a const group's values depend on position:
// some spec names iota or repeats the one before it.
func iotaGroup(d *ast.GenDecl) bool {
	for _, s := range d.Specs {
		vs := s.(*ast.ValueSpec)
		if len(vs.Values) == 0 {
			return true
		}
		found := false
		for _, v := range vs.Values {
			ast.Inspect(v, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					found = true
				}
				return !found
			})
		}
		if found {
			return true
		}
	}
	return false
}

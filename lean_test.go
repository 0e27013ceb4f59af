package drcom

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// leanExempt lists the directories whose declarations need no production
// caller. internal/scr is the Declarative Services substrate the paper
// (§2.1) contrasts DRCom with; core's TestContrastWithDeclarativeServices
// is its only driver, by design.
var leanExempt = map[string]bool{
	filepath.Join("internal", "scr"): true,
}

// TestInternalDeclarationsHaveProductionCallers keeps test-only and
// unreachable code out of production: every package-level func, type,
// var and const declared in a non-test file under internal/ must be named
// by at least one more identifier in a non-test .go file. An exported
// name may be named anywhere in the repository (cmd/, examples/ and the
// perfbench module included); an unexported one only in its own
// directory. The match is by name, so a name shared by two declarations
// can hide a dead one; it never flags a live one.
//
// Methods are out of scope: a method may be reached only through an
// interface it satisfies (a String, a listener callback), which no
// name match can tell from a dead method.
func TestInternalDeclarationsHaveProductionCallers(t *testing.T) {
	type decl struct {
		name, dir, pos string
	}
	var decls []decl
	byDir := map[string]map[string]int{} // dir -> identifier -> count
	repo := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			switch e.Name() {
			case ".git", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		counts := byDir[dir]
		if counts == nil {
			counts = map[string]int{}
			byDir[dir] = counts
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				counts[id.Name]++
				repo[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(dir, "internal"+string(filepath.Separator)) || leanExempt[dir] {
			return nil
		}
		add := func(id *ast.Ident) {
			if id.Name != "_" {
				decls = append(decls, decl{id.Name, dir, fset.Position(id.Pos()).String()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name != "init" && d.Name.Name != "main" {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no declarations found under internal/; run from the repository root")
	}
	var dead []string
	for _, d := range decls {
		uses := byDir[d.dir][d.name]
		if ast.IsExported(d.name) {
			uses = repo[d.name]
		}
		if uses < 2 { // the declaration itself is one
			dead = append(dead, d.pos+": "+d.name)
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s has no caller outside tests", s)
	}
}

package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"ndmesh/internal/lint"
	"ndmesh/internal/lint/linttest"
)

// The fixture suites: each analyzer's positive cases (including the
// would-have-caught-a-real-bug shapes — the Reset pooling leak and the
// struct-to-interface boxing alloc) and the sanctioned/annotated
// negatives, which must produce no findings.

func TestDeterminismFixtures(t *testing.T) {
	linttest.Run(t, lint.ListExports, lint.Determinism, "testdata/src", "determinism")
}

func TestResetCompleteFixtures(t *testing.T) {
	linttest.Run(t, lint.ListExports, lint.ResetComplete, "testdata/src", "resetcomplete")
}

func TestNoAllocFixtures(t *testing.T) {
	linttest.Run(t, lint.ListExports, lint.NoAlloc, "testdata/src", "noalloc")
}

// module is the repo's packages, loaded and type-checked once for every
// test that reads them.
var module struct {
	once sync.Once
	pkgs []*lint.LoadedPackage
	err  error
}

func loadModule(t *testing.T) []*lint.LoadedPackage {
	t.Helper()
	module.once.Do(func() { module.pkgs, module.err = lint.LoadPackages("../..", "./...") })
	if module.err != nil {
		t.Fatalf("loading module: %v", module.err)
	}
	return module.pkgs
}

// TestRepoMeshvetClean runs the whole suite over the module — what
// `go run ./cmd/meshvet ./...` runs — so `go test ./...` alone enforces
// the contracts.
func TestRepoMeshvetClean(t *testing.T) {
	diags, err := lint.RunAnalyzers(loadModule(t), lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestNoAllocInventoryMatchesRuntimeTests pins the two halves of the
// hot-path contract to each other: every //meshvet:noalloc directive in
// the source names a Test*AllocFree declared once in the module that
// calls testing.AllocsPerRun, and every such test is named by a directive.
func TestNoAllocInventoryMatchesRuntimeTests(t *testing.T) {
	funcs := noAllocDirectives(loadModule(t))
	if len(funcs) == 0 {
		t.Fatal("no //meshvet:noalloc directive found in the module")
	}
	for _, p := range checkNoAllocInventory(funcs, scanAllocFreeTests(t, "../..")) {
		t.Error(p)
	}
}

// TestCheckNoAllocInventory feeds the inventory checker in-memory
// inventories, one per mismatch it must report.
func TestCheckNoAllocInventory(t *testing.T) {
	fn := func(test string) noAllocFunc { return noAllocFunc{Name: "p.F", Test: test} }
	test := func(name string, calls bool) allocTest {
		return allocTest{Name: name, Pos: "p_test.go:1", CallsAllocsPerRun: calls}
	}
	cases := []struct {
		name  string
		funcs []noAllocFunc
		tests []allocTest
		want  []string // one pattern per reported problem
	}{
		{"consistent", []noAllocFunc{fn("TestAAllocFree"), fn("TestAAllocFree")},
			[]allocTest{test("TestAAllocFree", true)}, nil},
		{"named test missing", []noAllocFunc{fn("TestAAllocFree"), fn("TestBAllocFree")},
			[]allocTest{test("TestAAllocFree", true)},
			[]string{`p\.F names TestBAllocFree, which no _test\.go declares`}},
		{"named test declared twice", []noAllocFunc{fn("TestAAllocFree")},
			[]allocTest{test("TestAAllocFree", true), test("TestAAllocFree", true)},
			[]string{`TestAAllocFree is declared 2 times`, `TestAAllocFree is declared 2 times`}},
		{"named test without AllocsPerRun", []noAllocFunc{fn("TestAAllocFree")},
			[]allocTest{test("TestAAllocFree", false)},
			[]string{`TestAAllocFree does not call testing\.AllocsPerRun`}},
		{"test named by no directive", []noAllocFunc{fn("TestAAllocFree")},
			[]allocTest{test("TestAAllocFree", true), test("TestBAllocFree", true)},
			[]string{`TestBAllocFree is named by no //meshvet:noalloc directive`}},
		{"directive without a test", []noAllocFunc{fn("TestAAllocFree"), fn("")},
			[]allocTest{test("TestAAllocFree", true)},
			[]string{`p\.F names no runtime test`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := checkNoAllocInventory(c.funcs, c.tests)
			if len(got) != len(c.want) {
				t.Fatalf("got %d problems %q, want %d", len(got), got, len(c.want))
			}
			for i, pat := range c.want {
				if !regexp.MustCompile(pat).MatchString(got[i]) {
					t.Errorf("problem %d = %q, want a match for %q", i, got[i], pat)
				}
			}
		})
	}
}

// scanAllocFreeTests parses the module's _test.go files for Test*AllocFree
// declarations and whether each calls testing.AllocsPerRun.
func scanAllocFreeTests(t *testing.T, root string) []allocTest {
	t.Helper()
	var out []allocTest
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !allocTestRe.MatchString(fn.Name.Name) {
				continue
			}
			at := allocTest{Name: fn.Name.Name, Pos: fset.Position(fn.Pos()).String()}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "testing" {
						at.CallsAllocsPerRun = true
					}
				}
				return !at.CallsAllocsPerRun
			})
			out = append(out, at)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var allocTestRe = regexp.MustCompile(`^Test\w*AllocFree$`)

// noAllocFunc is one function annotated //meshvet:noalloc in non-test
// code, with the runtime test its directive names: the first word after
// the verb, "" when there is none.
type noAllocFunc struct {
	Name string // types.Func.FullName, e.g. "(*ndmesh/internal/engine.Engine).Step"
	Test string
}

// allocTest is one Test*AllocFree declaration in a _test.go file.
type allocTest struct {
	Name              string
	Pos               string // file:line, for messages
	CallsAllocsPerRun bool
}

// noAllocDirectives returns the //meshvet:noalloc functions of the loaded
// packages, sorted by name.
func noAllocDirectives(pkgs []*lint.LoadedPackage) []noAllocFunc {
	var out []noAllocFunc
	for _, lp := range pkgs {
		for _, f := range lp.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if args, ok := lint.FuncDirective(fn, "noalloc"); ok {
					test, _, _ := strings.Cut(args, " ")
					name := lp.Info.Defs[fn.Name].(*types.Func).FullName()
					out = append(out, noAllocFunc{Name: name, Test: test})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// checkNoAllocInventory holds the static and runtime halves of the
// hot-path allocation contract to each other and returns one line per
// mismatch: every noalloc function names a Test*AllocFree that is
// declared exactly once and calls testing.AllocsPerRun, and every
// Test*AllocFree is named by at least one directive.
func checkNoAllocInventory(funcs []noAllocFunc, tests []allocTest) []string {
	decls := map[string]int{}
	for _, t := range tests {
		decls[t.Name]++
	}
	named := map[string]bool{}
	var problems []string
	for _, f := range funcs {
		named[f.Test] = true
		switch {
		case f.Test == "":
			problems = append(problems, fmt.Sprintf("//meshvet:noalloc on %s names no runtime test", f.Name))
		case decls[f.Test] == 0:
			problems = append(problems, fmt.Sprintf("//meshvet:noalloc on %s names %s, which no _test.go declares as a Test*AllocFree", f.Name, f.Test))
		}
	}
	for _, t := range tests {
		switch {
		case !named[t.Name]:
			problems = append(problems, fmt.Sprintf("%s: runtime alloc assertion %s is named by no //meshvet:noalloc directive", t.Pos, t.Name))
		case decls[t.Name] > 1:
			problems = append(problems, fmt.Sprintf("%s: %s is declared %d times; a directive must resolve to one test", t.Pos, t.Name, decls[t.Name]))
		case !t.CallsAllocsPerRun:
			problems = append(problems, fmt.Sprintf("%s: %s does not call testing.AllocsPerRun", t.Pos, t.Name))
		}
	}
	return problems
}

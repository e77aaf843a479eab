// Package linttest runs meshvet analyzers over fixture packages and
// checks their findings against inline expectations, mirroring x/tools'
// analysistest on the standard library only. A fixture file marks each
// expected finding with a trailing comment on the offending line:
//
//	e.Reset() // want `probe scope calls engine mutator Reset`
//
// Every `want` pattern (a Go regexp in a quoted or backquoted string)
// must be matched by a diagnostic reported on that line, and every
// diagnostic must be covered by a pattern — unexpected findings fail the
// test too, which is what makes the negative fixtures (annotated or
// legitimately clean code) meaningful.
//
// Fixture packages live under testdata/src/<path>; they may import each
// other by those paths (pass dependencies first) and the standard
// library, which is resolved through `go list -export` like the main
// loader.
package linttest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ndmesh/internal/lint"
)

// wantRe extracts the quoted patterns of a `// want` comment.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one `// want` pattern at a file:line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run analyzes the fixture packages under srcRoot (in the given order —
// list dependencies before their importers) with one analyzer and
// compares findings against the fixtures' `// want` comments.
func Run(t *testing.T, a *lint.Analyzer, srcRoot string, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()

	type fixturePkg struct {
		path  string
		files []*ast.File
	}
	var fixtures []*fixturePkg
	fixtureSet := map[string]bool{}
	stdSet := map[string]bool{}
	for _, path := range pkgPaths {
		fixtureSet[path] = true
	}
	for _, path := range pkgPaths {
		dir := filepath.Join(srcRoot, filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading fixture dir: %v", err)
		}
		fp := &fixturePkg{path: path}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing fixture: %v", err)
			}
			fp.files = append(fp.files, f)
			for _, imp := range f.Imports {
				if p, err := strconv.Unquote(imp.Path.Value); err == nil && !fixtureSet[p] {
					stdSet[p] = true
				}
			}
		}
		if len(fp.files) == 0 {
			t.Fatalf("fixture package %s has no Go files", path)
		}
		fixtures = append(fixtures, fp)
	}

	lookup, err := stdExports(stdSet)
	if err != nil {
		t.Fatalf("resolving standard-library imports: %v", err)
	}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(fset, "gc", lookup)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})

	var loaded []*lint.LoadedPackage
	for _, fp := range fixtures {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		pkg, err := conf.Check(fp.path, fset, fp.files, info)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", fp.path, err)
		}
		checked[fp.path] = pkg
		loaded = append(loaded, &lint.LoadedPackage{
			ImportPath: fp.path,
			Fset:       fset,
			Files:      fp.files,
			Pkg:        pkg,
			Info:       info,
		})
	}

	diags, err := lint.RunAnalyzers(loaded, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var expects []*expectation
	for _, lp := range loaded {
		for _, f := range lp.Files {
			expects = append(expects, parseWants(t, fset, f)...)
		}
	}

	for _, d := range diags {
		covered := false
		for _, e := range expects {
			if !e.matched && e.file == d.Pos.Filename && e.line == d.Pos.Line &&
				e.pattern.MatchString(d.Message) {
				e.matched = true
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected a %s finding matching %q, got none",
				e.file, e.line, a.Name, e.pattern)
		}
	}
}

// parseWants extracts the `// want` expectations of one fixture file.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, lit := range wantRe.FindAllString(rest, -1) {
				s, err := strconv.Unquote(lit)
				if err != nil {
					t.Fatalf("%s: bad want pattern %s: %v", pos, lit, err)
				}
				re, err := regexp.Compile(s)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, s, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
			}
		}
	}
	return out
}

// stdExports returns the export-data lookup of the needed standard-library
// import paths and their dependencies.
func stdExports(paths map[string]bool) (importer.Lookup, error) {
	sorted := make([]string, 0, len(paths))
	//meshvet:ordered keys are sorted before use
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	return lint.ListExports(sorted)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

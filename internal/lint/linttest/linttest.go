// Package linttest runs a meshvet analyzer over one fixture package and
// checks its findings against inline expectations, mirroring x/tools'
// analysistest on the standard library only. A fixture file marks each
// expected finding with a trailing comment on the offending line:
//
//	return time.Now() // want `time\.Now reads the wall clock`
//
// Every `want` pattern (a Go regexp in a quoted or backquoted string)
// must be matched by a diagnostic reported on that line, and every
// diagnostic must be covered by a pattern — unexpected findings fail the
// test too, which is what makes the negative fixtures (annotated or
// legitimately clean code) meaningful.
//
// A fixture package lives under testdata/src/<path> and imports only the
// standard library, which is resolved through `go list -export` like the
// main loader.
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

// Exports opens the compiler export data of the named packages and all
// their dependencies: internal/lint's loader, which its tests hand to Run.
type Exports func(paths []string) (importer.Lookup, error)

// Run analyzes the fixture package srcRoot/pkgPath with one analyzer and
// compares its findings against the fixture's `// want` comments; the
// fixture's standard-library imports are resolved through exports.
func Run(t *testing.T, exports Exports, a *lint.Analyzer, srcRoot, pkgPath string) {
	t.Helper()
	fset := token.NewFileSet()
	dir := filepath.Join(srcRoot, filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[p] = true
			}
		}
	}
	if len(files) == 0 {
		t.Fatalf("fixture package %s has no Go files", pkgPath)
	}

	lookup, err := stdExports(exports, imports)
	if err != nil {
		t.Fatalf("resolving standard-library imports: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup), Sizes: types.SizesFor("gc", runtime.GOARCH)}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}
	loaded := []*lint.LoadedPackage{{ImportPath: pkgPath, Fset: fset, Files: files, Pkg: pkg, Info: info}}

	diags, err := lint.RunAnalyzers(loaded, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var expects []*expectation
	for _, f := range files {
		expects = append(expects, parseWants(t, fset, f)...)
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
func stdExports(exports Exports, paths map[string]bool) (importer.Lookup, error) {
	sorted := make([]string, 0, len(paths))
	//meshvet:ordered keys are sorted before use
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	return exports(sorted)
}

package ndmesh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryPackageHasDocComment enforces the documentation pass: every
// internal package (and the root package) must carry a package doc
// comment stating its role — go vet does not check this, so the test
// stands in for a revive/golint exported-comment rule without adding a
// tool dependency. CI runs it like any other test.
func TestEveryPackageHasDocComment(t *testing.T) {
	dirs := []string{"."}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join("internal", e.Name()))
		}
	}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			var files []string
			for fname, f := range pkg.Files {
				files = append(files, fname)
				if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
					documented = true
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package doc comment on any of %v",
					name, dir, files)
			}
		}
	}
}

// TestExportedFuncDocsNameTheFunc holds every exported function's and
// method's doc comment, outside bench/, testdata and _test.go files, to the
// Go convention that it begins with the name it documents, optionally after
// "A", "An" or "The": a comment left naming a renamed function fails here.
func TestExportedFuncDocsNameTheFunc(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || fn.Doc == nil {
				continue
			}
			words := strings.Fields(fn.Doc.Text())
			if len(words) > 1 && slices.Contains([]string{"A", "An", "The"}, words[0]) {
				words = words[1:]
			}
			if len(words) == 0 || strings.TrimRight(words[0], ",.:;") != fn.Name.Name {
				t.Errorf("%s: the doc comment of %s begins %q, not with its name", fset.Position(fn.Pos()), fn.Name.Name, strings.Join(words[:min(len(words), 2)], " "))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDocReferencesResolve keeps prose pointers alive: every *.md path a Go
// comment names (outside bench/, which only a benchmark PR edits) and every
// relative link of README.md, ARCHITECTURE.md and docs/*.md must exist, and
// every backticked Test/Benchmark/Fuzz name in README.md and ARCHITECTURE.md
// must be a func of some _test.go (a * in the name matches any run of
// characters). A comment's path is read from the repository root or from the
// file's own directory; a link from the document's directory. docs/ is a
// history log and may name tests since removed.
func TestDocReferencesResolve(t *testing.T) {
	exists := func(dirs []string, ref string) bool {
		for _, dir := range dirs {
			if _, err := os.Stat(filepath.Join(dir, ref)); err == nil {
				return true
			}
		}
		return false
	}
	mdPath := regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	var testFuncs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					testFuncs = append(testFuncs, fn.Name.Name)
				}
			}
		}
		if strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			return nil
		}
		for _, group := range f.Comments {
			for _, ref := range mdPath.FindAllString(group.Text(), -1) {
				if !exists([]string{".", filepath.Dir(path)}, ref) {
					t.Errorf("%s: a comment names %s, which does not exist", path, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	link := regexp.MustCompile(`\]\(([^)#\s]+)[^)]*\)`)
	for _, doc := range append([]string{"README.md", "ARCHITECTURE.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range link.FindAllStringSubmatch(string(text), -1) {
			if ref := m[1]; !strings.Contains(ref, "://") && !exists([]string{filepath.Dir(doc)}, ref) {
				t.Errorf("%s links to %s, which does not exist", doc, ref)
			}
		}
	}

	testName := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Za-z0-9_*]*)`")
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testName.FindAllStringSubmatch(string(text), -1) {
			if !slices.ContainsFunc(testFuncs, func(fn string) bool {
				ok, _ := filepath.Match(m[1], fn)
				return ok
			}) {
				t.Errorf("%s names %s, which no _test.go declares", doc, m[1])
			}
		}
	}
}

// Package lint is meshvet: a suite of static analyzers that enforce, at
// `go vet` time, the three contracts the repo's results rest on — the
// determinism contract (byte-identical results at every worker count),
// the 0 allocs/op hot-path contract, and the Reset-based pooling contract.
// The runtime tests (alloc assertions, determinism matrices,
// reset-equivalence) catch violations late and only on exercised paths;
// these analyzers catch the obvious violation classes on every path at
// compile time. The probe layer's "observation is off the decision path"
// rule needs no type information and is a module test instead
// (TestProbeReadOnly in the root package).
//
// The three analyzers (see their files for the precise rules):
//
//   - determinism: forbids math/rand, wall-clock reads and unannotated
//     range-over-map in non-test code.
//   - resetcomplete: a struct with a Reset method must account for every
//     field in its Reset body (directly or through same-receiver helper
//     methods) — the static form of the reset-equivalence tests.
//   - noalloc: functions annotated //meshvet:noalloc must not contain
//     obviously-allocating constructs.
//
// Escape hatches are explicit annotations, one per rule, each carrying a
// justification in the rest of the comment line (docs/LINTING.md is the
// directive reference); noalloc's first word names its runtime test:
//
//	//meshvet:ordered    — this map range is sorted or order-insensitive
//	//meshvet:wallclock  — this time.Now/Since is off the result path
//	//meshvet:keep       — this field deliberately survives Reset
//	//meshvet:noalloc T  — this function joins the hot-path contract,
//	                       asserted at run time by Test*AllocFree T
//	//meshvet:allow      — suppress any finding on the next line
//
// The framework deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer/Pass/Diagnostic) but is built
// on the standard library only, so the module keeps its zero-dependency
// property; cmd/meshvet runs the suite from the command line and
// TestRepoMeshvetClean inside `go test`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring the x/tools go/analysis shape.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is the one-paragraph description the CLI prints.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report receives each finding.
	Report func(Diagnostic)

	directives map[string]map[int][]string // filename -> line -> directive verbs
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix introduces every meshvet annotation.
const directivePrefix = "//meshvet:"

// parseDirectives indexes the verbs of a file's //meshvet: directives by
// line.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int][]string {
	out := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			verb, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			if i := strings.IndexAny(verb, " \t"); i >= 0 {
				verb = verb[:i]
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], verb)
		}
	}
	return out
}

// directivesFor returns the line-indexed directive verbs of the file
// holding pos, building the per-file index lazily.
func (p *Pass) directivesFor(pos token.Pos) map[int][]string {
	filename := p.Fset.Position(pos).Filename
	if p.directives == nil {
		p.directives = make(map[string]map[int][]string)
	}
	if d, ok := p.directives[filename]; ok {
		return d
	}
	for _, f := range p.Files {
		if p.Fset.Position(f.Pos()).Filename == filename {
			d := parseDirectives(p.Fset, f)
			p.directives[filename] = d
			return d
		}
	}
	p.directives[filename] = nil
	return nil
}

// Allowed reports whether node carries the given directive verb: on its
// own line, or on the line immediately above the node's start (the
// conventional spot for an annotation comment).
func (p *Pass) Allowed(verb string, node ast.Node) bool {
	dirs := p.directivesFor(node.Pos())
	line := p.Fset.Position(node.Pos()).Line
	return slices.Contains(dirs[line], verb) || slices.Contains(dirs[line-1], verb)
}

// FuncDirective reports whether fn's doc comment carries the directive
// verb and returns the rest of its line. (A directive on the line above
// the func keyword is part of the doc comment group, so this covers
// undocumented functions too.)
func FuncDirective(fn *ast.FuncDecl, verb string) (args string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	want := directivePrefix + verb
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, want); ok && (rest == "" || rest[0] == ' ') {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// All returns the full meshvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, ResetComplete, NoAlloc}
}

// sortDiagnostics orders findings by file, line, column, analyzer — the
// stable order every front end (CLI, tests) prints in.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// isTestFile reports whether the file position is in a _test.go file —
// every analyzer skips those (the contracts bind shipped code; tests
// allocate and randomize freely).
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

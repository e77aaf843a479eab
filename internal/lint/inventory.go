package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// NoAllocFunc is one function annotated //meshvet:noalloc in non-test
// code, with the runtime test its directive names: the first word after
// the verb, "" when there is none.
type NoAllocFunc struct {
	Name string // types.Func.FullName, e.g. "(*ndmesh/internal/engine.Engine).Step"
	Test string
}

// AllocTest is one Test*AllocFree declaration in a _test.go file.
type AllocTest struct {
	Name              string
	Pos               string // file:line, for messages
	CallsAllocsPerRun bool
}

// NoAllocDirectives returns the //meshvet:noalloc functions of the loaded
// packages, sorted by name.
func NoAllocDirectives(pkgs []*LoadedPackage) []NoAllocFunc {
	var out []NoAllocFunc
	for _, lp := range pkgs {
		for _, f := range lp.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if args, ok := FuncDirective(fn, "noalloc"); ok {
					test, _, _ := strings.Cut(args, " ")
					name := lp.Info.Defs[fn.Name].(*types.Func).FullName()
					out = append(out, NoAllocFunc{Name: name, Test: test})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CheckNoAllocInventory holds the static and runtime halves of the
// hot-path allocation contract to each other and returns one line per
// mismatch: every noalloc function names a Test*AllocFree that is
// declared exactly once and calls testing.AllocsPerRun, and every
// Test*AllocFree is named by at least one directive.
func CheckNoAllocInventory(funcs []NoAllocFunc, tests []AllocTest) []string {
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

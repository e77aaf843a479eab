package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ndmesh/internal/lint"
)

// TestInternalExportsHaveCallers holds the internal packages to exporting
// what production calls: every package-level exported func, method, type,
// var or const declared in internal/ must be used by a non-test file of the
// module (bench/, cmd/ and examples/ count) outside its own declaration.
// Two places are exempt, and a use inside them is no caller: a package's
// oracle.go, which holds the paper's definitions and theorems that tests
// check the protocol against, and a package that no non-test file imports
// (a test-support package such as meshtest or linttest). So is a method whose name some interface in the
// module declares, and String and Error. There is no allowlist: a helper
// only tests call lives in its package's export_test.go or in a
// test-support package.
func TestInternalExportsHaveCallers(t *testing.T) {
	for _, p := range uncalledExports(loadModule(t)) {
		t.Error(p)
	}
}

// uncalledExports returns one line per internal export with no caller.
func uncalledExports(pkgs []*lint.LoadedPackage) []string {
	imported := map[string]bool{}
	ifaceMethods := map[string]bool{"String": true, "Error": true}
	receivers := map[*ast.Ident]bool{} // a method's receiver names its type without using it
	for _, lp := range pkgs {
		for _, imp := range lp.Pkg.Imports() {
			imported[imp.Path()] = true
		}
		for _, f := range lp.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.InterfaceType:
					if iface, ok := lp.Info.Types[n].Type.(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceMethods[iface.Method(i).Name()] = true
						}
					}
				case *ast.FuncDecl:
					if n.Recv != nil {
						receivers[recvIdent(n)] = true
					}
				}
				return true
			})
		}
	}

	type candidate struct {
		pos  token.Position
		name string
		decl ast.Node // a use inside it is not a caller
	}
	cands := map[string]*candidate{}
	for _, lp := range pkgs {
		if !strings.HasPrefix(lp.ImportPath, "ndmesh/internal/") || !imported[lp.ImportPath] {
			continue
		}
		for _, f := range lp.Files {
			if filepath.Base(lp.Fset.Position(f.Pos()).Filename) == "oracle.go" {
				continue
			}
			add := func(id *ast.Ident, name string, decl ast.Node) {
				if id.IsExported() {
					cands[objectKey(lp.Info.Defs[id])] = &candidate{lp.Fset.Position(id.Pos()), lp.Pkg.Name() + "." + name, decl}
				}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					switch {
					case d.Recv == nil:
						add(d.Name, d.Name.Name, d)
					case !ifaceMethods[d.Name.Name]:
						add(d.Name, recvIdent(d).Name+"."+d.Name.Name, d)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id, id.Name, s)
							}
						}
					}
				}
			}
		}
	}

	// A use counts only where production code makes it: not in an
	// oracle.go, and not in a package only tests import.
	for _, lp := range pkgs {
		if strings.HasPrefix(lp.ImportPath, "ndmesh/internal/") && !imported[lp.ImportPath] {
			continue
		}
		for id, obj := range lp.Info.Uses {
			if filepath.Base(lp.Fset.Position(id.Pos()).Filename) == "oracle.go" {
				continue
			}
			key := objectKey(obj)
			if c := cands[key]; c != nil && !receivers[id] && (id.Pos() < c.decl.Pos() || id.Pos() >= c.decl.End()) {
				delete(cands, key)
			}
		}
	}
	var out []string
	for _, c := range cands {
		out = append(out, c.pos.String()+": "+c.name+" has no caller in a non-test file; delete it, or move it to an oracle.go, an export_test.go or a test-support package")
	}
	sort.Strings(out)
	return out
}

// objectKey names a package-level object the same way in the package that
// declares it and in one that imports it: the loader type-checks each
// package against its imports' export data, so the two are distinct
// types.Objects. It is "" for anything else.
func objectKey(obj types.Object) string {
	switch o := obj.(type) {
	case nil:
		return ""
	case *types.Func:
		return o.Origin().FullName()
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvIdent is the identifier naming a method's receiver base type.
func recvIdent(fn *ast.FuncDecl) *ast.Ident {
	x := fn.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		default:
			return e.(*ast.Ident)
		}
	}
}

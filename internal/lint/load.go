package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// LoadedPackage is one parsed, type-checked package ready for analysis.
type LoadedPackage struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader decodes.
type listPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps` over patterns in dir (the current
// directory when dir is "") — the package's one go list call. The go
// command compiles what it must into the build cache and reports each
// package with its export-data file, dependencies before importers.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=Dir,ImportPath,Standard,DepOnly,Export,GoFiles,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: package %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// LoadPackages type-checks the packages matching patterns (relative to
// dir), resolving every import — standard library and intra-module alike —
// from compiler export data. That keeps the loader dependency-free and
// network-free.
func LoadPackages(dir string, patterns ...string) ([]*LoadedPackage, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var targets []*listPackage
	for i := range listed {
		if p := &listed[i]; !p.Standard && !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(listed))

	var out []*LoadedPackage
	for _, tp := range targets {
		lp, err := typecheckPackage(fset, imp, tp)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// listExports returns the import lookup of the linttest fixture loader
// (handed to it by this package's tests): it opens the compiler export data
// of the named packages and all their dependencies.
func listExports(patterns []string) (importer.Lookup, error) {
	if len(patterns) == 0 {
		return exportLookup(nil), nil
	}
	listed, err := goList("", patterns)
	if err != nil {
		return nil, err
	}
	return exportLookup(listed), nil
}

// exportLookup opens the export-data file of each listed package.
func exportLookup(listed []listPackage) importer.Lookup {
	files := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			files[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := files[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// typecheckPackage parses one target package's sources and type-checks
// them against export-data imports.
func typecheckPackage(fset *token.FileSet, imp types.Importer, tp *listPackage) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range tp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(tp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(tp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", tp.ImportPath, err)
	}
	return &LoadedPackage{
		ImportPath: tp.ImportPath,
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// RunAnalyzers applies the analyzers to every loaded package and returns
// the findings in stable (file, line, column, analyzer) order.
func RunAnalyzers(pkgs []*LoadedPackage, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, lp := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      lp.Fset,
				Files:     lp.Files,
				Pkg:       lp.Pkg,
				TypesInfo: lp.Info,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, lp.ImportPath, err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ProbeReadOnly pins the "observation is off the decision path" contract:
// the probe layer consumes StepCensus values the engine pushes; it never
// steers the run. Concretely, inside internal/probe (any package whose
// import path ends in "/probe") and inside any Probe-shaped observation
// method (ObserveStep/ObserveLatency, the engine.Probe method set) in any
// package, a call to a method on the engine's Engine type must be on the
// read-only allowlist below. The check is default-deny: a future engine
// mutator is rejected here without a meshvet release, while a future
// accessor needs one line added to engineReadOnly — the safe failure mode.
var ProbeReadOnly = &Analyzer{
	Name: "probereadonly",
	Doc: "the probe layer and Probe observation methods may only call the " +
		"engine's read-only accessors: observation must not steer the run",
	Run: runProbeReadOnly,
}

// engineReadOnly is the allowlist of Engine methods that observe without
// mutating. Everything else (Step, Inject, Reset, ClearFlights, SetProbe,
// DetachDone, FinalizeEvents, Run, ...) is denied in probe scope.
var engineReadOnly = map[string]bool{
	"StepCount":         true,
	"ContentionEnabled": true,
	"Resident":          true,
	"LinkPending":       true,
	"Admit":             true,
	"Gridlocked":        true,
	"GridlockStep":      true,
	"GridlockRecovery":  true,
	"Flights":           true,
	"Done":              true,
	"ResidencyCensus":   true,
}

// probeMethodNames is the engine.Probe observation method set (plus the
// latency extension the probe registry feeds); a method with one of these
// names is in probereadonly scope wherever it is declared.
var probeMethodNames = map[string]bool{
	"ObserveStep":    true,
	"ObserveLatency": true,
}

func runProbeReadOnly(pass *Pass) error {
	inProbePkg := pass.Pkg != nil &&
		(strings.HasSuffix(pass.Pkg.Path(), "/probe") || pass.Pkg.Path() == "probe")
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if inProbePkg || (fn.Recv != nil && probeMethodNames[fn.Name.Name]) {
				pass.checkProbeCalls(fn)
			}
		}
	}
	return nil
}

// checkProbeCalls walks one in-scope function for Engine method calls off
// the read-only allowlist.
func (p *Pass) checkProbeCalls(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := p.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return true
		}
		if !isEngineType(selection.Recv()) || engineReadOnly[sel.Sel.Name] {
			return true
		}
		p.Reportf(call.Pos(),
			"probe scope calls engine mutator %s: observation must stay off the decision path (read-only accessors: Flights, Resident, StepCount, ...)",
			sel.Sel.Name)
		return true
	})
}

// isEngineType reports whether t is (a pointer to) the engine package's
// Engine type, matched structurally by package-path suffix so the fixture
// packages exercise the same code path as ndmesh/internal/engine.
func isEngineType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Engine" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return strings.HasSuffix(path, "/engine") || path == "engine"
}

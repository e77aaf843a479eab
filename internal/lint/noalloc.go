package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc enforces the hot-path allocation contract statically: a
// function annotated //meshvet:noalloc must not contain
// obviously-allocating constructs. The runtime Test*AllocFree assertions
// remain the ground truth (escape analysis can both save and doom
// borderline code), but this catches the classes PR 8 hunted by hand —
// at review time, on every path, exercised or not:
//
//   - new(T) and make(...) of any kind
//   - map and slice composite literals, and &T{...} (address-taken
//     literal escapes)
//   - append whose result is not assigned back to the same expression
//     (the pooled self-append x = append(x, ...) is the sanctioned
//     amortized-zero pattern)
//   - fmt.* calls, string concatenation, string<->[]byte conversions
//   - non-empty struct, array, or slice values converted to interfaces
//     (the interface-conversion allocs PR 8 hoisted out of generators)
//   - closures, go statements, and bound method values (each allocates)
//
// Cold paths inside a hot function — a pool miss taking &T{} once —
// carry //meshvet:allow on the construct's line with a justification.
// The check is intraprocedural by design: callees must carry their own
// annotation to be checked (the directive inventory test pins the set).
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //meshvet:noalloc must not contain " +
		"obviously-allocating constructs (suppress a deliberate cold-path " +
		"allocation with //meshvet:allow)",
	Run: runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := FuncDirective(fn, "noalloc"); ok {
				pass.checkNoAlloc(fn)
			}
		}
	}
	return nil
}

// checkNoAlloc walks one annotated function body.
func (p *Pass) checkNoAlloc(fn *ast.FuncDecl) {
	// Appends whose result is assigned back to the identical expression
	// (x = append(x, ...)) are the sanctioned pooled-growth pattern;
	// collect them first so the main walk can skip them. Calls are
	// likewise collected so a bound method value used as a call target is
	// not mistaken for an escaping method value.
	selfAppends := map[*ast.CallExpr]bool{}
	calledFuns := map[ast.Expr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isBuiltin(call.Fun, "append") || len(call.Args) == 0 {
					continue
				}
				if types.ExprString(n.Lhs[i]) == types.ExprString(call.Args[0]) {
					selfAppends[call] = true
				}
			}
		case *ast.CallExpr:
			calledFuns[n.Fun] = true
		}
		return true
	})

	report := func(n ast.Node, format string, args ...any) {
		if p.Allowed("allow", n) {
			return
		}
		p.Reportf(n.Pos(), format, args...)
	}

	var sig *types.Signature
	if obj, ok := p.TypesInfo.Defs[fn.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n, "closure allocates in a //meshvet:noalloc function; hoist it to a cached field or a named function")
			return false // the closure's own body is out of contract
		case *ast.GoStmt:
			report(n, "go statement in a //meshvet:noalloc function: a goroutine launch allocates (and schedules nondeterministically)")
		case *ast.CallExpr:
			p.checkNoAllocCall(n, selfAppends, report)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					report(n, "&composite literal escapes to the heap in a //meshvet:noalloc function; recycle from a free list instead")
				}
			}
		case *ast.CompositeLit:
			t := p.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(n, "map literal allocates in a //meshvet:noalloc function")
			case *types.Slice:
				report(n, "slice literal allocates in a //meshvet:noalloc function")
			case *types.Struct:
				p.checkStructLitInterfaces(n, report)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := p.TypesInfo.TypeOf(n); t != nil && isString(t) {
					report(n, "string concatenation allocates in a //meshvet:noalloc function")
				}
			}
		case *ast.SelectorExpr:
			if calledFuns[ast.Expr(n)] {
				return true
			}
			if sel := p.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				report(n, "bound method value allocates a closure in a //meshvet:noalloc function; call the method directly, or bind it once outside the hot path")
			}
		case *ast.AssignStmt:
			p.checkAssignInterfaces(n, report)
		case *ast.ValueSpec:
			p.checkValueSpecInterfaces(n, report)
		case *ast.ReturnStmt:
			p.checkReturnInterfaces(n, sig, report)
		}
		return true
	})
}

type reportFn func(n ast.Node, format string, args ...any)

// checkNoAllocCall classifies one call inside a noalloc body.
func (p *Pass) checkNoAllocCall(call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, report reportFn) {
	// Conversions: T(x).
	if tv, ok := p.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		p.checkConversion(call, tv.Type, report)
		return
	}
	switch {
	case p.isBuiltin(call.Fun, "new"):
		report(call, "new(T) allocates in a //meshvet:noalloc function; recycle from a free list instead")
	case p.isBuiltin(call.Fun, "make"):
		report(call, "make allocates in a //meshvet:noalloc function; pre-size the buffer at construction")
	case p.isBuiltin(call.Fun, "append"):
		if !selfAppends[call] {
			report(call, "append whose result is not assigned back to the same slice (x = append(x, ...)) aliases or grows foreign memory in a //meshvet:noalloc function")
		}
	default:
		if p.isPkgCall(call.Fun, "fmt") {
			report(call, "fmt call allocates (formatting, interface boxing) in a //meshvet:noalloc function")
			return
		}
		p.checkCallArgInterfaces(call, report)
	}
}

// checkConversion flags string<->[]byte conversions and explicit
// interface conversions of alloc-class operands.
func (p *Pass) checkConversion(call *ast.CallExpr, target types.Type, report reportFn) {
	if len(call.Args) != 1 {
		return
	}
	argT := p.TypesInfo.TypeOf(call.Args[0])
	if argT == nil {
		return
	}
	if isString(target) && isByteSlice(argT) || isByteSlice(target) && isString(argT) {
		report(call, "string<->[]byte conversion copies and allocates in a //meshvet:noalloc function")
		return
	}
	p.checkInterfaceBox(call, target, call.Args[0], report)
}

// checkCallArgInterfaces flags concrete alloc-class arguments passed to
// interface-typed parameters.
func (p *Pass) checkCallArgInterfaces(call *ast.CallExpr, report reportFn) {
	sigT := p.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // a ...slice passed through boxes nothing new
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		p.checkInterfaceBox(arg, pt, arg, report)
	}
}

// checkAssignInterfaces flags concrete alloc-class values assigned to
// interface-typed destinations.
func (p *Pass) checkAssignInterfaces(assign *ast.AssignStmt, report reportFn) {
	if assign.Tok == token.DEFINE || len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i := range assign.Lhs {
		lt := p.TypesInfo.TypeOf(assign.Lhs[i])
		if lt == nil {
			continue
		}
		p.checkInterfaceBox(assign.Rhs[i], lt, assign.Rhs[i], report)
	}
}

// checkValueSpecInterfaces flags var declarations with an explicit
// interface type initialized from alloc-class concretes.
func (p *Pass) checkValueSpecInterfaces(spec *ast.ValueSpec, report reportFn) {
	if spec.Type == nil {
		return
	}
	dt := p.TypesInfo.TypeOf(spec.Type)
	if dt == nil {
		return
	}
	for _, v := range spec.Values {
		p.checkInterfaceBox(v, dt, v, report)
	}
}

// checkReturnInterfaces flags alloc-class concretes returned as
// interface results.
func (p *Pass) checkReturnInterfaces(ret *ast.ReturnStmt, sig *types.Signature, report reportFn) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		p.checkInterfaceBox(res, sig.Results().At(i).Type(), res, report)
	}
}

// checkStructLitInterfaces flags alloc-class concretes boxed into a
// struct literal's interface-typed fields.
func (p *Pass) checkStructLitInterfaces(lit *ast.CompositeLit, report reportFn) {
	st, ok := p.TypesInfo.TypeOf(lit).Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for j := 0; j < st.NumFields(); j++ {
				if st.Field(j).Name() == key.Name {
					p.checkInterfaceBox(kv.Value, st.Field(j).Type(), kv.Value, report)
					break
				}
			}
		} else if i < st.NumFields() {
			p.checkInterfaceBox(elt, st.Field(i).Type(), elt, report)
		}
	}
}

// checkInterfaceBox reports when a concrete value of an alloc-class type
// (non-empty struct, non-empty array, slice) is converted to an
// interface: the conversion heap-allocates a copy on every execution.
func (p *Pass) checkInterfaceBox(at ast.Node, target types.Type, val ast.Expr, report reportFn) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	vt := p.TypesInfo.TypeOf(val)
	if vt == nil {
		return
	}
	if _, ok := vt.Underlying().(*types.Interface); ok {
		return // interface-to-interface copies the word pair, no box
	}
	if tv, ok := p.TypesInfo.Types[val]; ok && tv.IsNil() {
		return
	}
	switch u := vt.Underlying().(type) {
	case *types.Struct:
		if u.NumFields() > 0 {
			report(at, "converting non-empty struct %s to interface %s allocates on every execution in a //meshvet:noalloc function; hoist the conversion out of the hot path", vt, target)
		}
	case *types.Array:
		if u.Len() > 0 {
			report(at, "converting array %s to interface %s allocates on every execution in a //meshvet:noalloc function", vt, target)
		}
	case *types.Slice:
		report(at, "converting slice %s to interface %s allocates on every execution in a //meshvet:noalloc function", vt, target)
	}
}

// isBuiltin reports whether e names the given predeclared builtin.
func (p *Pass) isBuiltin(e ast.Expr, name string) bool {
	ident, ok := e.(*ast.Ident)
	if !ok || ident.Name != name {
		return false
	}
	_, ok = p.TypesInfo.Uses[ident].(*types.Builtin)
	return ok
}

// isPkgCall reports whether e is a selector on the named imported package.
func (p *Pass) isPkgCall(e ast.Expr, pkg string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.TypesInfo.Uses[ident].(*types.PkgName)
	return ok && pn.Imported().Path() == pkg
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

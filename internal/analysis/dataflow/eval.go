package dataflow

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// resolveObj finds the object an identifier denotes.
func (it *Interp) resolveObj(id *ast.Ident) types.Object {
	if obj := it.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return it.pkg.Info.Defs[id]
}

// isScopeConst reports whether obj is the ScopeBlock or ScopeDevice
// constant. The interpreter keeps scope constants opaque rather than
// folding them to integers, so a branch on a scope value is never
// decided statically and both arms stay in the trace.
func isScopeConst(obj types.Object) bool {
	c, ok := obj.(*types.Const)
	return ok && (c.Name() == "ScopeBlock" || c.Name() == "ScopeDevice")
}

// constFold extracts the type checker's constant value for e, if any.
func (it *Interp) constFold(e ast.Expr) (Value, bool) {
	tv, ok := it.pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return Value{}, false
	}
	switch tv.Value.Kind() {
	case constant.Int:
		if n, exact := constant.Int64Val(tv.Value); exact {
			return constVal(n), true
		}
	case constant.Bool:
		if constant.BoolVal(tv.Value) {
			return constVal(1), true
		}
		return constVal(0), true
	}
	return Value{}, false
}

// stringConst returns the constant string value of e, or "".
func (it *Interp) stringConst(e ast.Expr) string {
	tv, ok := it.pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

func (it *Interp) eval(e ast.Expr) Value {
	if e == nil {
		return Value{}
	}
	it.steps++
	if it.steps > maxSteps {
		return Value{Deps: DepUnknown}
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return it.eval(x.X)
	case *ast.Ident:
		return it.evalIdent(x)
	case *ast.SelectorExpr:
		return it.evalSelector(x)
	case *ast.BasicLit:
		if v, ok := it.constFold(x); ok {
			return v
		}
		return Value{}
	case *ast.BinaryExpr:
		// Prefer the type checker's folding for all-constant arithmetic.
		if v, ok := it.constFold(x); ok {
			return v
		}
		return it.binary(it.eval(x.X), it.eval(x.Y), x.Op)
	case *ast.UnaryExpr:
		return it.evalUnary(x)
	case *ast.StarExpr:
		return it.eval(x.X)
	case *ast.CallExpr:
		return it.evalCall(x)
	case *ast.IndexExpr:
		base := it.eval(x.X)
		idx := it.eval(x.Index)
		return Value{
			Deps:    base.Deps | idx.Deps,
			Bases:   base.Bases,
			AnyBase: base.AnyBase,
			Fields:  base.Fields,
		}
	case *ast.SliceExpr:
		return it.eval(x.X)
	case *ast.CompositeLit:
		return it.evalComposite(x)
	case *ast.FuncLit:
		return Value{Funcs: []*FuncVal{{
			Pkg:  it.pkg,
			Type: x.Type,
			Body: x.Body,
			Env:  it.snapshotEnv(),
		}}}
	case *ast.TypeAssertExpr:
		return Value{Deps: DepUnknown}
	}
	if v, ok := it.constFold(e); ok {
		return v
	}
	return Value{Deps: DepUnknown}
}

func (it *Interp) snapshotEnv() *Env {
	return &Env{parent: it.outer, vars: it.copyState()}
}

func (it *Interp) evalIdent(id *ast.Ident) Value {
	obj := it.resolveObj(id)
	if obj == nil {
		if v, ok := it.constFold(id); ok {
			return v
		}
		return Value{Deps: DepUnknown}
	}
	if isScopeConst(obj) {
		return Value{}
	}
	if v, ok := it.state[obj]; ok {
		return v
	}
	if it.outer != nil {
		if v, ok := it.outer.Lookup(obj); ok {
			return v
		}
	}
	switch o := obj.(type) {
	case *types.Const:
		if v, ok := it.constFold(id); ok {
			return v
		}
		return Value{}
	case *types.Func:
		if dc, ok := it.w.FuncBody(o); ok {
			return Value{Funcs: []*FuncVal{declFunc(dc.pkg, dc.decl)}}
		}
		return Value{Deps: DepUnknown}
	case *types.Nil:
		return Value{}
	}
	// Unbound variable (package-level state, or read before the
	// interpreter saw a binding).
	return Value{Deps: DepUnknown}
}

func (it *Interp) evalSelector(sel *ast.SelectorExpr) Value {
	// Ctx coordinate fields.
	if tv, ok := it.pkg.Info.Types[sel.X]; ok && IsCtxPtr(tv.Type) {
		switch sel.Sel.Name {
		case "Block":
			return Value{Deps: DepBlock}
		case "Warp":
			return Value{Deps: DepWarp}
		case "Blocks":
			return Value{Deps: DepCross}
		case "Warps", "WarpSize":
			return Value{}
		}
	}
	// Package-qualified constant / function.
	if obj := it.pkg.Info.Uses[sel.Sel]; obj != nil {
		if isScopeConst(obj) {
			return Value{}
		}
		if c, ok := obj.(*types.Const); ok {
			_ = c
			if v, ok := it.constFold(sel); ok {
				return v
			}
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
			if dc, ok := it.w.FuncBody(fn); ok {
				return Value{Funcs: []*FuncVal{declFunc(dc.pkg, dc.decl)}}
			}
		}
	}
	// Struct field access.
	base := it.eval(sel.X)
	if base.Fields != nil {
		if v, ok := base.Fields[sel.Sel.Name]; ok {
			return v
		}
	}
	if fobj := fieldObj(it.pkg, sel); fobj != nil {
		return it.w.FieldValue(fobj)
	}
	return Value{Deps: DepUnknown}
}

func (it *Interp) evalUnary(x *ast.UnaryExpr) Value {
	if v, ok := it.constFold(x); ok {
		return v
	}
	v := it.eval(x.X)
	switch x.Op {
	case token.NOT:
		if b, ok := constBool(v); ok {
			if b {
				return constVal(0)
			}
			return constVal(1)
		}
		return Value{Deps: v.Deps}
	case token.SUB:
		if c, ok := v.IsConst(); ok {
			return constVal(-c)
		}
		return v
	case token.AND: // address-of
		return v
	}
	return v
}

// binary combines two abstract values under an arithmetic or comparison
// operator, folding constants.
func (it *Interp) binary(a, b Value, op token.Token) Value {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		if ac, ok := a.IsConst(); ok {
			if bc, ok := b.IsConst(); ok {
				var r bool
				switch op {
				case token.EQL:
					r = ac == bc
				case token.NEQ:
					r = ac != bc
				case token.LSS:
					r = ac < bc
				case token.LEQ:
					r = ac <= bc
				case token.GTR:
					r = ac > bc
				case token.GEQ:
					r = ac >= bc
				}
				if r {
					return constVal(1)
				}
				return constVal(0)
			}
		}
		return Value{Deps: a.Deps | b.Deps}
	case token.LAND, token.LOR:
		ab, aok := constBool(a)
		bb, bok := constBool(b)
		if aok && bok {
			var r bool
			if op == token.LAND {
				r = ab && bb
			} else {
				r = ab || bb
			}
			if r {
				return constVal(1)
			}
			return constVal(0)
		}
		// Short-circuit domination: false && x is false, true || x true.
		if aok && ((op == token.LAND && !ab) || (op == token.LOR && ab)) {
			return a
		}
		return Value{Deps: a.Deps | b.Deps}
	}

	out := Value{
		Deps:    a.Deps | b.Deps,
		Bases:   mergeBases(a.Bases, b.Bases),
		AnyBase: a.AnyBase || b.AnyBase,
	}
	if ac, ok := a.IsConst(); ok {
		if bc, ok := b.IsConst(); ok {
			switch op {
			case token.ADD:
				return withMeta(out, ac+bc)
			case token.SUB:
				return withMeta(out, ac-bc)
			case token.MUL:
				return withMeta(out, ac*bc)
			case token.QUO:
				if bc != 0 {
					return withMeta(out, ac/bc)
				}
			case token.REM:
				if bc != 0 {
					return withMeta(out, ac%bc)
				}
			}
		}
	}
	return out
}

func withMeta(v Value, c int64) Value {
	v.Const = &c
	return v
}

func (it *Interp) evalComposite(lit *ast.CompositeLit) Value {
	if st, ok := structTypeOf(it.pkg, lit); ok {
		v := Value{Fields: map[string]Value{}}
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					v.Fields[id.Name] = it.eval(kv.Value)
				}
				continue
			}
			if i < st.NumFields() {
				v.Fields[st.Field(i).Name()] = it.eval(el)
			}
		}
		return v
	}
	// Array/slice literal: join the elements.
	var v Value
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = join(v, it.eval(kv.Value))
			continue
		}
		v = join(v, it.eval(el))
	}
	return v
}

// --- calls -----------------------------------------------------------------

func (it *Interp) evalCall(call *ast.CallExpr) Value {
	fun := ast.Unparen(call.Fun)
	// Type conversion.
	if tv, ok := it.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return it.eval(call.Args[0])
		}
		return Value{}
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := it.pkg.Info.Uses[id].(*types.Builtin); ok {
			return it.evalBuiltin(b.Name(), call)
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if name, ok := it.ctxMethodName(call); ok {
			return it.ctxOp(name, sel, call)
		}
		// d.Alloc("name", n): the root of every allocation base.
		if tv, ok := it.pkg.Info.Types[sel.X]; ok && isDevicePtr(tv.Type) && sel.Sel.Name == "Alloc" && len(call.Args) >= 1 {
			if name := it.stringConst(call.Args[0]); name != "" {
				return Value{Bases: []string{name}}
			}
			return Value{AnyBase: true}
		}
	}

	// Resolve inlinable callees.
	var fvs []*FuncVal
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := it.pkg.Info.Uses[f].(*types.Func); ok {
			if fv := it.declFuncVal(fn); fv != nil {
				fvs = []*FuncVal{fv}
			}
		} else {
			fvs = it.eval(f).Funcs
		}
	case *ast.SelectorExpr:
		if fn, ok := it.pkg.Info.Uses[f.Sel].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
			if fv := it.declFuncVal(fn); fv != nil {
				fvs = []*FuncVal{fv}
			}
		}
	}

	// Evaluate arguments in the caller's context (this also records any
	// operations the argument expressions perform).
	args := make([]*Value, len(call.Args))
	for i, a := range call.Args {
		v := it.eval(a)
		args[i] = &v
	}
	if len(fvs) == 0 {
		return Value{Deps: DepUnknown}
	}
	var out Value
	for i, fv := range fvs {
		v := it.inline(fv, args)
		if i == 0 {
			out = v
		} else {
			out = join(out, v)
		}
	}
	return out
}

// declFuncVal wraps a called declaration for inlining when it is a
// kernel helper (has a *gpu.Ctx parameter) or a kernel-builder (returns
// a function).
func (it *Interp) declFuncVal(fn *types.Func) *FuncVal {
	dc, ok := it.w.FuncBody(fn)
	if !ok {
		return nil
	}
	if HasCtxParam(dc.pkg.Info, dc.decl.Type) || resultsIncludeFunc(dc.decl.Type) {
		return declFunc(dc.pkg, dc.decl)
	}
	return nil
}

func resultsIncludeFunc(ftype *ast.FuncType) bool {
	if ftype.Results == nil {
		return false
	}
	for _, f := range ftype.Results.List {
		if _, ok := f.Type.(*ast.FuncType); ok {
			return true
		}
	}
	return false
}

func (it *Interp) inline(fv *FuncVal, args []*Value) Value {
	if fv.Body == nil || it.depth >= maxDepth {
		return Value{Deps: DepUnknown}
	}
	it.depth++
	savedPkg, savedOuter := it.pkg, it.outer
	it.pkg, it.outer = fv.Pkg, fv.Env
	it.retVal = append(it.retVal, Value{})
	it.bindParams(fv.Type, args)
	it.execBlock(fv.Body.List)
	ret := it.retVal[len(it.retVal)-1]
	it.retVal = it.retVal[:len(it.retVal)-1]
	it.pkg, it.outer = savedPkg, savedOuter
	it.depth--
	return ret
}

func (it *Interp) evalBuiltin(name string, call *ast.CallExpr) Value {
	switch name {
	case "append":
		var v Value
		for i, a := range call.Args {
			if i == 0 {
				v = it.eval(a)
			} else {
				v = join(v, it.eval(a))
			}
		}
		return v
	case "len", "cap":
		v := it.eval(call.Args[0])
		return Value{Deps: v.Deps}
	case "min", "max":
		var v Value
		allConst := true
		var best int64
		for i, a := range call.Args {
			av := it.eval(a)
			if c, ok := av.IsConst(); ok {
				if i == 0 || (name == "min" && c < best) || (name == "max" && c > best) {
					best = c
				}
			} else {
				allConst = false
			}
			if i == 0 {
				v = av
			} else {
				v = join(v, av)
			}
		}
		if allConst && len(call.Args) > 0 {
			v.Const = &best
		} else {
			v.Const = nil
		}
		return v
	case "make", "new":
		return Value{}
	default:
		for _, a := range call.Args {
			it.eval(a)
		}
		return Value{Deps: DepUnknown}
	}
}

// ctxMethodName resolves a call to a *gpu.Ctx method.
func (it *Interp) ctxMethodName(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := it.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !IsCtxPtr(sig.Recv().Type()) {
		return "", false
	}
	return fn.Name(), true
}

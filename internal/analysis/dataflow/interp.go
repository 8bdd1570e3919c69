package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"scord/internal/analysis/framework"
)

// OpKind classifies a recorded kernel operation.
type OpKind uint8

const (
	// OpLoad is a data read (Load/LoadV/LoadVec).
	OpLoad OpKind = iota
	// OpStore is a data write (Store/StoreV/StoreVec).
	OpStore
	// OpAtomic is any atomic-family operation.
	OpAtomic
	// OpFence is a memory fence.
	OpFence
)

// Op is one recorded kernel memory or fence operation.
type Op struct {
	Kind     OpKind
	Method   string
	Call     *ast.CallExpr
	Addr     Value
	AddrExpr ast.Expr
	Volatile bool
	Site     string
}

// Atomic reports whether the op is in the atomic family.
func (o *Op) Atomic() bool { return o.Kind == OpAtomic }

// Weak reports whether the op is a plain (non-volatile, non-atomic)
// access.
func (o *Op) Weak() bool { return (o.Kind == OpLoad || o.Kind == OpStore) && !o.Volatile }

// Pos returns the op's source position.
func (o *Op) Pos() token.Pos { return o.Call.Pos() }

// Result is the outcome of interpreting one kernel.
type Result struct {
	Trace []*Op
	// BlockBranch: some branch condition depends on block identity.
	BlockBranch bool
}

type termKind uint8

const (
	termNone termKind = iota
	termBreak
	termReturn
)

// Interp is the flow-sensitive abstract interpreter for one kernel
// activation.
type Interp struct {
	w     *World
	pkg   *framework.Package
	state map[types.Object]Value
	outer *Env

	record  bool
	trace   []*Op
	blockB  bool
	curSite string

	retVal []Value // return accumulator stack, one per inlined call
	depth  int
	steps  int
}

const maxSteps = 400000
const maxDepth = 10

func newInterp(w *World, pkg *framework.Package, outer *Env) *Interp {
	return &Interp{
		w:      w,
		pkg:    pkg,
		state:  map[types.Object]Value{},
		outer:  outer,
		record: true,
	}
}

// Run interprets fn with the given positional argument values (nil
// entries get the default parameter classification: integer parameters
// become DepParam, address parameters become opaque $-bases) and
// returns the recorded facts.
func Run(w *World, fn *FuncVal, args []*Value) *Result {
	it := newInterp(w, fn.Pkg, fn.Env)
	it.bindParams(fn.Type, args)
	it.retVal = append(it.retVal, Value{})
	it.execBlock(fn.Body.List)
	return &Result{Trace: it.trace, BlockBranch: it.blockB}
}

// declFunc wraps a function declaration as a FuncVal.
func declFunc(pkg *framework.Package, decl *ast.FuncDecl) *FuncVal {
	return &FuncVal{Pkg: pkg, Type: decl.Type, Body: decl.Body}
}

// bindParams installs parameter bindings. A nil arg entry means the
// parameter is a free input of the analysis.
func (it *Interp) bindParams(ftype *ast.FuncType, args []*Value) {
	if ftype.Params == nil {
		return
	}
	i := 0
	for _, field := range ftype.Params.List {
		for _, name := range field.Names {
			obj := it.pkg.Info.Defs[name]
			var v Value
			if i < len(args) && args[i] != nil {
				v = *args[i]
			} else if obj != nil {
				v = defaultParam(it.pkg, obj)
			}
			if obj != nil {
				it.state[obj] = v
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
}

// defaultParam classifies an unbound parameter: plain integers are
// role/id inputs (DepParam), named address types are opaque bases, and
// everything else is unknown.
func defaultParam(pkg *framework.Package, obj types.Object) Value {
	t := obj.Type()
	if IsCtxPtr(t) {
		return Value{}
	}
	if b, ok := t.(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		return Value{Deps: DepParam}
	}
	if isAddrType(t) {
		return Value{Bases: []string{"$" + obj.Name() + "@" + pkg.Fset.Position(obj.Pos()).String()}}
	}
	if _, ok := t.Underlying().(*types.Signature); ok {
		return Value{Deps: DepUnknown}
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		// Struct parameters (the micro arena) resolve their fields
		// through the world's field join.
		_ = st
		return Value{}
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if isAddrType(sl.Elem()) {
			return Value{AnyBase: true, Deps: DepUnknown}
		}
		return Value{Deps: DepUnknown}
	}
	return Value{Deps: DepUnknown}
}

// isAddrType reports whether t is mem.Addr (by name + path suffix).
func isAddrType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Addr" || obj.Pkg() == nil {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), "internal/mem")
}

// IsCtxPtr reports whether t is *gpu.Ctx.
func IsCtxPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Ctx" && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), "internal/gpu")
}

// isDevicePtr reports whether t is *gpu.Device.
func isDevicePtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Device" && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), "internal/gpu")
}

func pathHasSuffix(p, suffix string) bool {
	return p == suffix || (len(p) > len(suffix) && p[len(p)-len(suffix)-1] == '/' && p[len(p)-len(suffix):] == suffix)
}

// HasCtxParam reports whether the function type takes a *gpu.Ctx.
func HasCtxParam(info *types.Info, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, f := range ftype.Params.List {
		if tv, ok := info.Types[f.Type]; ok && IsCtxPtr(tv.Type) {
			return true
		}
	}
	return false
}

// --- statements ------------------------------------------------------------

func (it *Interp) copyState() map[types.Object]Value {
	out := make(map[types.Object]Value, len(it.state))
	for k, v := range it.state {
		out[k] = v
	}
	return out
}

func (it *Interp) joinStates(a, b map[types.Object]Value) {
	merged := make(map[types.Object]Value, len(a))
	for k, v := range a {
		if w, ok := b[k]; ok {
			merged[k] = join(v, w)
		} else {
			merged[k] = v
		}
	}
	for k, v := range b {
		if _, ok := merged[k]; !ok {
			merged[k] = v
		}
	}
	it.state = merged
}

// execBlock runs a statement list.
func (it *Interp) execBlock(stmts []ast.Stmt) termKind {
	for _, s := range stmts {
		if t := it.execStmt(s); t != termNone {
			return t
		}
	}
	return termNone
}

func (it *Interp) execStmt(s ast.Stmt) termKind {
	it.steps++
	if it.steps > maxSteps {
		return termReturn
	}
	switch st := s.(type) {
	case *ast.ExprStmt:
		it.eval(st.X)
	case *ast.AssignStmt:
		it.execAssign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var v Value
					if i < len(vs.Values) {
						v = it.eval(vs.Values[i])
					}
					it.bindIdent(name, v)
				}
			}
		}
	case *ast.IncDecStmt:
		v := it.eval(st.X)
		one := int64(1)
		res := it.binary(v, Value{Const: &one}, token.ADD)
		it.assignTo(st.X, res)
	case *ast.IfStmt:
		return it.execIf(st)
	case *ast.ForStmt:
		it.execFor(st)
	case *ast.RangeStmt:
		it.execRange(st)
	case *ast.SwitchStmt:
		it.execSwitch(st)
	case *ast.BlockStmt:
		return it.execBlock(st.List)
	case *ast.ReturnStmt:
		if len(st.Results) > 0 && len(it.retVal) > 0 {
			v := it.eval(st.Results[0])
			for _, r := range st.Results[1:] {
				v = join(v, it.eval(r))
			}
			it.retVal[len(it.retVal)-1] = join(it.retVal[len(it.retVal)-1], v)
		}
		return termReturn
	case *ast.BranchStmt:
		if st.Tok == token.BREAK || st.Tok == token.CONTINUE {
			return termBreak
		}
	case *ast.LabeledStmt:
		return it.execStmt(st.Stmt)
	}
	return termNone
}

func (it *Interp) execAssign(st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// Op-assign: x op= e.
		if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
			cur := it.eval(st.Lhs[0])
			rhs := it.eval(st.Rhs[0])
			op := assignOpToken(st.Tok)
			it.assignTo(st.Lhs[0], it.binary(cur, rhs, op))
		}
		return
	}
	if len(st.Lhs) == len(st.Rhs) {
		vals := make([]Value, len(st.Rhs))
		for i, rhs := range st.Rhs {
			vals[i] = it.eval(rhs)
		}
		for i, lhs := range st.Lhs {
			it.assignTo(lhs, vals[i])
		}
		return
	}
	// Multi-value from a single call: each LHS becomes unknown (the
	// interpreter keeps single-value call summaries only).
	for _, rhs := range st.Rhs {
		it.eval(rhs)
	}
	for _, lhs := range st.Lhs {
		it.assignTo(lhs, Value{Deps: DepUnknown})
	}
}

func assignOpToken(t token.Token) token.Token {
	switch t {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	default:
		return token.OR
	}
}

func (it *Interp) assignTo(lhs ast.Expr, v Value) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		it.bindIdent(x, v)
	case *ast.IndexExpr:
		// a[i] = v joins the element into the slice/array value.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			cur := it.eval(id)
			it.bindIdent(id, join(cur, v))
		}
	}
}

func (it *Interp) bindIdent(id *ast.Ident, v Value) {
	if id.Name == "_" {
		return
	}
	obj := it.pkg.Info.Defs[id]
	if obj == nil {
		obj = it.pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	it.state[obj] = v
}

func (it *Interp) execIf(st *ast.IfStmt) termKind {
	if st.Init != nil {
		it.execStmt(st.Init)
	}
	cond := it.eval(st.Cond)
	if b, ok := constBool(cond); ok {
		if b {
			return it.execStmt(st.Body)
		}
		if st.Else != nil {
			return it.execStmt(st.Else)
		}
		return termNone
	}
	if cond.BlockVarying() {
		it.blockB = true
	}

	saved := it.copyState()
	t1 := it.execStmt(st.Body)
	thenState := it.state

	it.state = saved
	var t2 termKind
	if st.Else != nil {
		it.state = it.copyState()
		t2 = it.execStmt(st.Else)
	}
	elseState := it.state

	switch {
	case t1 != termNone && (st.Else != nil && t2 != termNone):
		if t1 == termReturn && t2 == termReturn {
			return termReturn
		}
		return termBreak
	case t1 != termNone:
		// Then-arm leaves: the rest of the enclosing block runs in the
		// else state.
		it.state = elseState
	case t2 != termNone:
		it.state = thenState
	default:
		it.joinStates(thenState, elseState)
	}
	return termNone
}

func (it *Interp) execFor(st *ast.ForStmt) {
	if st.Init != nil {
		it.execStmt(st.Init)
	}
	condUnknown := false
	if st.Cond != nil {
		cv := it.eval(st.Cond)
		if b, ok := constBool(cv); ok {
			if !b {
				return
			}
		} else {
			condUnknown = true
			if cv.BlockVarying() {
				it.blockB = true
			}
		}
	}
	saved := it.copyState()
	it.runLoopBody(func() {
		it.execStmt(st.Body)
		if st.Post != nil {
			it.execStmt(st.Post)
		}
		if st.Cond != nil {
			it.eval(st.Cond)
		}
	}, saved)
	if condUnknown {
		it.joinStates(it.state, saved)
	}
}

func (it *Interp) execRange(st *ast.RangeStmt) {
	x := it.eval(st.X)
	elem := Value{Deps: x.Deps | DepLoop, Bases: x.Bases, AnyBase: x.AnyBase}
	bindRange := func() {
		if st.Key != nil {
			it.assignTo(st.Key, Value{Deps: DepLoop | (x.Deps & DepUnknown)})
		}
		if st.Value != nil {
			it.assignTo(st.Value, elem)
		}
	}
	saved := it.copyState()
	it.runLoopBody(func() {
		bindRange()
		it.execStmt(st.Body)
	}, saved)
	it.joinStates(it.state, saved)
}

// runLoopBody interprets a loop body twice: the first pass discovers
// loop-carried values (widened with DepLoop), the second records
// operations against the widened state, so cross-iteration address
// combinations appear in the trace.
func (it *Interp) runLoopBody(body func(), entry map[types.Object]Value) {
	body()
	for obj, v := range it.state {
		old, had := entry[obj]
		if !had || !eq(old, v) {
			w := join(old, v)
			w.Deps |= DepLoop
			it.state[obj] = w
		}
	}
	body()
}

func (it *Interp) execSwitch(st *ast.SwitchStmt) {
	if st.Init != nil {
		it.execStmt(st.Init)
	}
	if st.Tag != nil {
		tv := it.eval(st.Tag)
		if tv.BlockVarying() {
			it.blockB = true
		}
	}
	saved := it.copyState()
	var states []map[types.Object]Value
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		it.state = make(map[types.Object]Value, len(saved))
		for k, v := range saved {
			it.state[k] = v
		}
		it.execBlock(cc.Body)
		states = append(states, it.state)
	}
	it.state = saved
	for _, s := range states {
		it.joinStates(it.state, s)
	}
}

func constBool(v Value) (bool, bool) {
	if v.Const == nil {
		return false, false
	}
	return *v.Const != 0, true
}

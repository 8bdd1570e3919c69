package dataflow

import (
	"go/ast"
	"go/types"

	"scord/internal/analysis/framework"
)

// FuncVal is an abstract function value: a function literal or declared
// function body together with the environment it captured.
type FuncVal struct {
	Pkg  *framework.Package
	Type *ast.FuncType
	Body *ast.BlockStmt
	Env  *Env
}

// Env is a read-only chain of variable bindings (captured environments
// of closures, parameter bindings of inlined calls).
type Env struct {
	parent *Env
	vars   map[types.Object]Value
}

// NewEnv returns an empty environment chained onto parent.
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: map[types.Object]Value{}}
}

// Lookup finds obj in this frame or any ancestor.
func (e *Env) Lookup(obj types.Object) (Value, bool) {
	for f := e; f != nil; f = f.parent {
		if v, ok := f.vars[obj]; ok {
			return v, true
		}
	}
	return Value{}, false
}

// World indexes one or more loaded packages so the interpreter can
// resolve helper calls and struct-field values across package
// boundaries. Function declarations are keyed by import path + name
// because an imported *types.Func (from export data) is a distinct
// object from the same function's source-level object.
type World struct {
	Pkgs []*framework.Package

	funcs map[string]*declCtx

	fieldJoin map[string]Value
	fieldBusy map[string]bool
}

// declCtx is a function declaration plus the package whose type info
// resolves its body.
type declCtx struct {
	pkg  *framework.Package
	decl *ast.FuncDecl
}

// NewWorld indexes the given packages.
func NewWorld(pkgs ...*framework.Package) *World {
	w := &World{
		Pkgs:      pkgs,
		funcs:     map[string]*declCtx{},
		fieldJoin: map[string]Value{},
		fieldBusy: map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Body == nil {
					continue
				}
				w.funcs[pkg.PkgPath+"."+fd.Name.Name] = &declCtx{pkg: pkg, decl: fd}
			}
		}
	}
	return w
}

// FuncBody resolves a *types.Func to its source declaration, if that
// declaration lives in one of the World's packages.
func (w *World) FuncBody(fn *types.Func) (*declCtx, bool) {
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	d, ok := w.funcs[fn.Pkg().Path()+"."+fn.Name()]
	return d, ok
}

// fieldKey identifies a struct field across object identities (source
// object vs export-data object) by package path, receiver type name and
// field name.
func fieldKey(obj *types.Var) (string, bool) {
	if obj == nil || !obj.IsField() || obj.Pkg() == nil {
		return "", false
	}
	return obj.Pkg().Path() + "." + obj.Name() + "@" + obj.Type().String(), true
}

// FieldValue returns the join of every value the loaded packages ever
// store into the given struct field — through keyed and positional
// composite literals and through x.f = v assignments. This is how a
// kernel closure's m.<field> references resolve to the allocations and
// constants its benchmark's constructor installed.
func (w *World) FieldValue(obj *types.Var) Value {
	key, ok := fieldKey(obj)
	if !ok {
		return Value{Deps: DepUnknown}
	}
	if v, done := w.fieldJoin[key]; done {
		return v
	}
	if w.fieldBusy[key] {
		// Cycle (a field initialized from itself); treat as unknown.
		return Value{Deps: DepUnknown}
	}
	w.fieldBusy[key] = true
	defer func() { w.fieldBusy[key] = false }()

	val := Value{}
	found := false
	for _, pkg := range w.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					st, ok := structTypeOf(pkg, x)
					if !ok {
						return true
					}
					for i, el := range x.Elts {
						var fobj *types.Var
						var vexpr ast.Expr
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							id, ok := kv.Key.(*ast.Ident)
							if !ok {
								continue
							}
							fobj, _ = pkg.Info.Uses[id].(*types.Var)
							if fobj == nil {
								fobj, _ = pkg.Info.Defs[id].(*types.Var)
							}
							vexpr = kv.Value
						} else if i < st.NumFields() {
							fobj = st.Field(i)
							vexpr = el
						}
						if fobj == nil {
							continue
						}
						if k2, ok := fieldKey(fobj); ok && k2 == key {
							it := newInterp(w, pkg, nil)
							it.record = false
							val = join(val, it.eval(vexpr))
							found = true
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok || i >= len(x.Rhs) {
							continue
						}
						fobj := fieldObj(pkg, sel)
						if fobj == nil {
							continue
						}
						if k2, ok := fieldKey(fobj); ok && k2 == key {
							it := newInterp(w, pkg, nil)
							it.record = false
							val = join(val, it.eval(x.Rhs[i]))
							found = true
						}
					}
				}
				return true
			})
		}
	}
	if !found {
		val = Value{Deps: DepUnknown}
	}
	w.fieldJoin[key] = val
	return val
}

// structTypeOf returns the struct type a composite literal constructs.
func structTypeOf(pkg *framework.Package, lit *ast.CompositeLit) (*types.Struct, bool) {
	tv, ok := pkg.Info.Types[lit]
	if !ok {
		return nil, false
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	return st, ok
}

// fieldObj resolves a selector expression to the struct field it
// denotes, or nil.
func fieldObj(pkg *framework.Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pkg.Info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// OuterEnv computes a flow-insensitive environment for the local
// variables of fn's body: each variable maps to the join of every value
// assigned to it anywhere in the function. Kernel closures capture
// these locals (allocation addresses, injected scope selections), and a
// join over all assignments is exactly the "any configuration"
// semantics the race predictor wants: a scope variable assigned
// ScopeDevice by default and ScopeBlock under an injection switch joins
// to the two-element scope set.
func (w *World) OuterEnv(pkg *framework.Package, body *ast.BlockStmt, parent *Env) *Env {
	env := NewEnv(parent)
	it := newInterp(w, pkg, env)
	it.record = false
	bind := func(lhs ast.Expr, v Value) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if prev, ok := env.vars[obj]; ok {
			env.vars[obj] = join(prev, v)
		} else {
			env.vars[obj] = v
		}
	}
	for pass := 0; pass < 3; pass++ {
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Rhs {
						bind(st.Lhs[i], it.eval(st.Rhs[i]))
					}
				} else {
					for _, lhs := range st.Lhs {
						bind(lhs, Value{Deps: DepUnknown})
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Values {
						bind(st.Names[i], it.eval(st.Values[i]))
					}
				} else {
					for _, name := range st.Names {
						if len(st.Values) > 0 {
							bind(name, Value{Deps: DepUnknown})
						}
					}
				}
			case *ast.RangeStmt:
				x := it.eval(st.X)
				elem := Value{Deps: x.Deps | DepLoop, Bases: x.Bases, AnyBase: x.AnyBase}
				if st.Key != nil {
					bind(st.Key, Value{Deps: DepLoop})
				}
				if st.Value != nil {
					bind(st.Value, elem)
				}
			}
			return true
		})
	}
	return env
}

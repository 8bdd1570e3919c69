package dataflow

import "go/ast"

// emit appends a recorded operation, tagged with the current c.Site
// label.
func (it *Interp) emit(op *Op) {
	if !it.record {
		return
	}
	op.Site = it.curSite
	it.trace = append(it.trace, op)
}

// ctxOp interprets one *gpu.Ctx method call, recording the memory and
// fence operations the lint checks consume.
func (it *Interp) ctxOp(name string, sel *ast.SelectorExpr, call *ast.CallExpr) Value {
	// Evaluate the receiver first: chained calls like
	// c.Site("x").Store(...) record their Site effect here.
	it.eval(sel.X)

	arg := func(i int) Value {
		if i < len(call.Args) {
			return it.eval(call.Args[i])
		}
		return Value{}
	}
	newOp := func(kind OpKind, addrIdx int) *Op {
		op := &Op{Kind: kind, Method: name, Call: call}
		if addrIdx >= 0 && addrIdx < len(call.Args) {
			op.AddrExpr = call.Args[addrIdx]
			op.Addr = it.eval(call.Args[addrIdx])
		}
		return op
	}

	switch name {
	case "Site":
		if s := it.stringConst(argExpr(call, 0)); s != "" {
			it.curSite = s
		}
		return Value{}
	case "AtLane", "Work":
		arg(0)
		return Value{}
	case "Converge", "SyncThreads":
		return Value{}
	case "GlobalWarp":
		return Value{Deps: DepCross}
	case "Seq":
		base := arg(0)
		n := arg(1)
		base.Deps |= n.Deps
		return base
	case "Fence":
		op := newOp(OpFence, -1)
		arg(0)
		it.emit(op)
		return Value{}

	case "Load", "LoadV":
		op := newOp(OpLoad, 0)
		op.Volatile = name == "LoadV"
		it.emit(op)
		return Value{Deps: DepMem}
	case "LoadVec":
		op := newOp(OpLoad, 0)
		op.Volatile = !it.constFalse(argExpr(call, 1))
		it.emit(op)
		return Value{Deps: DepMem}
	case "Store", "StoreV":
		op := newOp(OpStore, 0)
		op.Volatile = name == "StoreV"
		arg(1)
		it.emit(op)
		return Value{}
	case "StoreVec":
		op := newOp(OpStore, 0)
		arg(1)
		op.Volatile = !it.constFalse(argExpr(call, 2))
		it.emit(op)
		return Value{}

	case "AtomicAdd", "AtomicMax", "AtomicCAS", "AtomicExch",
		"AtomicAddVec", "AtomicMaxVec", "AtomicReadVec", "Acquire", "Release":
		// The address, then the value and scope operands in order.
		op := newOp(OpAtomic, 0)
		for i := 1; i < len(call.Args); i++ {
			arg(i)
		}
		it.emit(op)
		if name == "Release" {
			return Value{}
		}
		return Value{Deps: DepMem}
	}

	// Unmodeled Ctx method: evaluate arguments for their effects.
	for i := range call.Args {
		arg(i)
	}
	return Value{Deps: DepUnknown}
}

// constFalse reports whether e is the constant false (mirrors
// scopelint's volatile-flag treatment: only a provably-false flag makes
// a vector access weak).
func (it *Interp) constFalse(e ast.Expr) bool {
	if e == nil {
		return false
	}
	v := it.eval(e)
	b, ok := constBool(v)
	return ok && !b
}

func argExpr(call *ast.CallExpr, i int) ast.Expr {
	if i < len(call.Args) {
		return call.Args[i]
	}
	return nil
}

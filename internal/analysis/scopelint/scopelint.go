// Package scopelint statically checks scope discipline in kernel
// functions — any function with a *gpu.Ctx parameter. ScoRD's dynamic
// detector finds scoped races when they happen; scopelint flags the
// paper's bug patterns before a simulation ever runs:
//
//   - crossblock: a block-scope atomic (or Acquire/Release) whose address
//     is derived from cross-block bases (GlobalWarp(), c.Blocks), or is
//     the same on every block — the Figure 3 work-stealing bug shape.
//   - fencepublish: a block-scope fence that is supposed to publish a
//     prior store to a cross-block address (the Figure 4 RED bug shape).
//   - weakmixed: a plain (weak) Load/Store of an address the same kernel
//     also accesses atomically — the weak-access race class of Table IV.
//   - acqrel: an Acquire with no matching Release anywhere in the kernel.
//   - diverge: AtLane divergence that reaches a SyncThreads/Fence or the
//     kernel's end without an intervening Converge (ITS, Section VI).
//
// The crossblock, fencepublish and weakmixed checks consume the
// flow-sensitive facts of internal/analysis/dataflow: address
// provenance is tracked through assignments, loops and conditionals,
// and aliasing is decided by allocation bases instead of syntactic
// address equality. Scope operands are still matched syntactically (the
// literal ScopeBlock constant): injection harnesses select scopes
// through variables at run time on purpose, and the dynamic detector
// judges those sites, not lint. The acqrel and diverge checks remain
// source-order heuristics. A finding that is intentional (an injected race, a
// single-block launch) is silenced with a
// //scord:allow(scopelint/<check>) comment carrying a justification.
package scopelint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"scord/internal/analysis/dataflow"
	"scord/internal/analysis/fix"
	"scord/internal/analysis/framework"
)

// Analyzer is the kernel scope-discipline checker.
var Analyzer = &framework.Analyzer{
	Name: "scopelint",
	Doc:  "statically checks scoped-memory-model discipline in GPU kernel functions",
	Run:  run,
}

// atomicMethods maps Ctx atomic-family methods to the argument positions
// of their address and scope operands.
var atomicMethods = map[string]struct{ addr, scope int }{
	"AtomicAdd":     {0, 2},
	"AtomicMax":     {0, 2},
	"AtomicCAS":     {0, 3},
	"AtomicExch":    {0, 2},
	"Acquire":       {0, 1},
	"Release":       {0, 2},
	"AtomicAddVec":  {0, 2},
	"AtomicMaxVec":  {0, 2},
	"AtomicReadVec": {0, 1},
}

func run(pass *framework.Pass) error {
	wpkg := &framework.Package{
		PkgPath: pass.Pkg.Path(),
		Fset:    pass.Fset,
		Files:   pass.Files,
		Types:   pass.Pkg,
		Info:    pass.TypesInfo,
	}
	world := dataflow.NewWorld(wpkg)
	for _, file := range pass.Files {
		// stack tracks the ancestors of the node being visited, so a
		// kernel closure can resolve its captured variables (allocation
		// addresses bound in the launching function's body).
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			}
			if body != nil && isKernelFunc(pass, ftype) {
				var env *dataflow.Env
				for i := len(stack) - 1; i >= 0; i-- {
					switch enc := stack[i].(type) {
					case *ast.FuncDecl:
						env = world.OuterEnv(wpkg, enc.Body, nil)
					case *ast.FuncLit:
						env = world.OuterEnv(wpkg, enc.Body, nil)
					}
					if env != nil {
						break
					}
				}
				checkKernel(pass, world, wpkg, ftype, body, env)
			}
			stack = append(stack, n)
			return true // nested kernels are visited (and re-checked) on their own
		})
	}
	return nil
}

// isKernelFunc reports whether the function type has a *gpu.Ctx parameter.
func isKernelFunc(pass *framework.Pass, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, f := range ftype.Params.List {
		if isCtxPtr(pass.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// isCtxPtr reports whether t is *gpu.Ctx (matched by package path suffix,
// so the root package's Ctx alias resolves identically).
func isCtxPtr(t types.Type) bool {
	return dataflow.IsCtxPtr(t)
}

// ctxCall describes one Ctx method call inside a kernel.
type ctxCall struct {
	name string
	call *ast.CallExpr
	pos  token.Pos
}

// checkKernel runs every scope check over one kernel function. The
// kernel is interpreted with free parameters (the dataflow layer's
// default classification: integer parameters are block-derived ids,
// address parameters are opaque bases); operations recorded from
// inlined helper bodies are skipped here, because every helper with a
// *gpu.Ctx parameter is checked as a kernel of its own.
func checkKernel(pass *framework.Pass, world *dataflow.World, wpkg *framework.Package, ftype *ast.FuncType, body *ast.BlockStmt, env *dataflow.Env) {
	res := dataflow.Run(world, &dataflow.FuncVal{Pkg: wpkg, Type: ftype, Body: body, Env: env}, nil)
	r := &reporter{pass: pass, seen: map[string]bool{}}
	var ops []*dataflow.Op
	for _, op := range res.Trace {
		if op.Pos() >= body.Pos() && op.Pos() <= body.End() {
			ops = append(ops, op)
		}
	}

	checkCrossBlock(pass, r, res, ops)
	checkFencePublish(pass, r, ops)
	checkWeakMixed(pass, r, ops)

	calls := collectCtxCalls(pass, body)
	checkAcqRel(pass, calls)
	checkDiverge(pass, calls)
}

// reporter deduplicates findings: a loop body is interpreted twice, so
// the same operation can appear in the trace more than once.
type reporter struct {
	pass *framework.Pass
	seen map[string]bool
}

func (r *reporter) reportf(pos token.Pos, category, format string, args ...interface{}) {
	r.reportFix(pos, category, nil, format, args...)
}

// reportFix is reportf with a machine-readable suggested fix attached
// (shared vocabulary with the repair synthesizer; rendered by the
// driver's -json output).
func (r *reporter) reportFix(pos token.Pos, category string, fx *fix.Fix, format string, args ...interface{}) {
	key := r.pass.Fset.Position(pos).String() + "\x00" + category
	if r.seen[key] {
		return
	}
	r.seen[key] = true
	r.pass.Report(framework.Diagnostic{
		Pos:      pos,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fx,
	})
}

// fixSite locates a suggested fix: the op's c.Site label when the kernel
// recorded one, else its file:line source position.
func fixSite(pass *framework.Pass, op *dataflow.Op) string {
	if op.Site != "" {
		return op.Site
	}
	pos := pass.Fset.Position(op.Pos())
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// collectCtxCalls gathers Ctx method calls in source order, descending
// into nested non-kernel closures but not into nested kernels.
func collectCtxCalls(pass *framework.Pass, body *ast.BlockStmt) []ctxCall {
	var calls []ctxCall
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && isKernelFunc(pass, lit.Type) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := ctxMethodName(pass, call); ok {
			calls = append(calls, ctxCall{name: name, call: call, pos: call.Pos()})
		}
		return true
	})
	sort.Slice(calls, func(i, j int) bool { return calls[i].pos < calls[j].pos })
	return calls
}

// ctxMethodName resolves a call to a method on *gpu.Ctx.
func ctxMethodName(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isCtxPtr(sig.Recv().Type()) {
		return "", false
	}
	return fn.Name(), true
}

// isScopeBlock reports whether e is the ScopeBlock constant (under any
// re-export alias). Scope values held in variables are deliberately not
// traced: injection harnesses select scopes at run time on purpose.
func isScopeBlock(pass *framework.Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return false
	}
	c, ok := pass.ObjectOf(id).(*types.Const)
	return ok && c.Name() == "ScopeBlock"
}

// blockScopeArg returns whether the recorded atomic op's scope operand
// is the literal ScopeBlock constant.
func blockScopeArg(pass *framework.Pass, op *dataflow.Op) bool {
	spec, ok := atomicMethods[op.Method]
	if !ok || len(op.Call.Args) <= spec.scope {
		return false
	}
	return isScopeBlock(pass, op.Call.Args[spec.scope])
}

// checkCrossBlock flags block-scope atomics whose address is either
// cross-block derived or identical on every block. Addresses the
// interpreter traced to memory loads or unanalyzable inputs are given
// the benefit of the doubt on the shared-address heuristic: their value
// may well differ per block.
func checkCrossBlock(pass *framework.Pass, r *reporter, res *dataflow.Result, ops []*dataflow.Op) {
	for _, op := range ops {
		if !op.Atomic() || !blockScopeArg(pass, op) {
			continue
		}
		fx := &fix.Fix{
			Kind:   fix.PromoteScope,
			Site:   fixSite(pass, op),
			Detail: op.Method + " ScopeBlock -> ScopeDevice",
		}
		switch {
		case op.Addr.CrossDerived():
			r.reportFix(op.Pos(), "crossblock", fx,
				"block-scope %s on an address derived from cross-block bases; block scope only orders within one threadblock — use ScopeDevice", op.Method)
		case !op.Addr.BlockVarying() && op.Addr.Deps&(dataflow.DepMem|dataflow.DepUnknown) == 0 && !res.BlockBranch:
			r.reportFix(op.Pos(), "crossblock", fx,
				"block-scope %s on an address that is the same for every block; concurrent blocks will race on it — use ScopeDevice", op.Method)
		}
	}
}

// checkFencePublish flags a block-scope fence that is positioned to
// publish an earlier store to a cross-block address. "Earlier" is trace
// order: the interpreter's execution order, not source order.
func checkFencePublish(pass *framework.Pass, r *reporter, ops []*dataflow.Op) {
	for i, op := range ops {
		if op.Kind != dataflow.OpFence || len(op.Call.Args) != 1 || !isScopeBlock(pass, op.Call.Args[0]) {
			continue
		}
		for _, prev := range ops[:i] {
			if prev.Kind == dataflow.OpStore && prev.Addr.CrossDerived() {
				r.reportf(op.Pos(), "fencepublish",
					"block-scope fence cannot publish the preceding store to a cross-block address; the consumer is in another block — use Fence(ScopeDevice)")
				break
			}
		}
	}
}

// checkWeakMixed flags weak accesses to an address the same kernel also
// touches atomically. Aliasing is decided by allocation bases (two
// addresses into the same allocation may overlap); syntactic equality
// remains as a fallback for addresses whose bases the interpreter could
// not resolve.
func checkWeakMixed(pass *framework.Pass, r *reporter, ops []*dataflow.Op) {
	var atomics []*dataflow.Op
	for _, op := range ops {
		if op.Atomic() {
			atomics = append(atomics, op)
		}
	}
	if len(atomics) == 0 {
		return
	}
	for _, op := range ops {
		if !op.Weak() || op.AddrExpr == nil {
			continue
		}
		var by string
		for _, a := range atomics {
			if len(op.Addr.CommonBases(a.Addr)) > 0 ||
				types.ExprString(op.AddrExpr) == types.ExprString(a.AddrExpr) {
				by = a.Method
			}
		}
		if by != "" {
			fx := &fix.Fix{
				Kind:   fix.DemoteAtomic,
				Site:   fixSite(pass, op),
				Detail: "weak " + op.Method + " -> device-scope atomic (or LoadV/StoreV)",
			}
			r.reportFix(op.Pos(), "weakmixed", fx,
				"weak %s of %s, which this kernel also accesses with %s; weak accesses to synchronizing addresses race (use LoadV/StoreV or an atomic)",
				op.Method, types.ExprString(op.AddrExpr), by)
		}
	}
}

// checkAcqRel flags kernels that Acquire but never Release.
func checkAcqRel(pass *framework.Pass, calls []ctxCall) {
	var firstAcq *ctxCall
	for i := range calls {
		switch calls[i].name {
		case "Acquire":
			if firstAcq == nil {
				firstAcq = &calls[i]
			}
		case "Release":
			return
		}
	}
	if firstAcq != nil {
		pass.Reportf(firstAcq.pos, "acqrel",
			"Acquire without a matching Release on any path of this kernel; acquire ordering synchronizes with nothing")
	}
}

// checkDiverge flags AtLane divergence that is not closed by Converge
// before a synchronization point or the end of the kernel. Control flow
// is approximated by source order.
func checkDiverge(pass *framework.Pass, calls []ctxCall) {
	for _, c := range calls {
		if c.name != "AtLane" {
			continue
		}
		var converge token.Pos = token.NoPos
		for _, d := range calls {
			if d.name == "Converge" && d.pos > c.pos {
				converge = d.pos
				break
			}
		}
		if converge == token.NoPos {
			pass.Reportf(c.pos, "diverge",
				"AtLane divergence is never closed by Converge; subsequent code still runs as a diverged warp")
			continue
		}
		for _, d := range calls {
			if (d.name == "SyncThreads" || d.name == "Fence") && d.pos > c.pos && d.pos < converge {
				pass.Reportf(c.pos, "diverge",
					"diverged warp reaches %s before Converge; close the divergence first", d.name)
				break
			}
		}
	}
}

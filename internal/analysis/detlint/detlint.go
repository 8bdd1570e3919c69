// Package detlint enforces the simulator-determinism invariants that PR 1
// established (byte-identical output for identical inputs, regardless of
// worker interleaving) and that ordinary go vet cannot check:
//
//   - walltime: no time.Now/time.Since in simulation packages — simulated
//     timing must derive from engine cycles. (Wall-clock telemetry that
//     never feeds simulation results is annotated, not removed.)
//   - globalrand: no global math/rand functions — every random stream
//     must come from a seeded rand.New(rand.NewSource(...)).
//   - maporder: no map iteration that feeds formatted output, or that
//     accumulates into a slice which is never sorted — both leak Go's
//     randomized map order into rendered tables and stats.
//   - goroutine: no goroutine launches inside engine event handlers —
//     the event queue's (cycle, seq) order is the determinism contract,
//     and a goroutine racing the handler breaks it.
//
// The driver applies detlint to the deterministic core (internal/engine,
// internal/gpu, internal/harness, internal/stats, internal/core and the
// packages deterministicCore lists); the analyzer itself
// checks whatever package it is handed, which is how its testdata
// packages are exercised.
package detlint

import (
	"go/ast"
	"go/types"
	"sort"

	"scord/internal/analysis/framework"
)

// Analyzer is the simulator-determinism checker.
var Analyzer = &framework.Analyzer{
	Name:  "detlint",
	Doc:   "enforces determinism invariants in the simulator's deterministic core",
	Match: inDeterministicCore,
	Run:   run,
}

// deterministicCore lists the packages whose behavior must be a pure
// function of (config, seed). The contract covers the whole timing
// model: the engine and harness, the device (launch, block dispatch,
// barriers and the warp baton), the stats pipeline, the race-detection
// core, and every memory-system component whose latencies feed
// simulated cycles.
var deterministicCore = map[string]bool{
	"scord/internal/engine":    true,
	"scord/internal/gpu":       true,
	"scord/internal/harness":   true,
	"scord/internal/stats":     true,
	"scord/internal/core":      true,
	"scord/internal/cache":     true,
	"scord/internal/noc":       true,
	"scord/internal/dram":      true,
	"scord/internal/mem":       true,
	"scord/internal/detectors": true,
	// The observability subsystem sits on the result path when attached
	// (sampled metrics are part of a run's deterministic output), so it
	// obeys the same contract: no wall-clock, no global rand, no
	// map-order-dependent serialization.
	"scord/internal/obs": true,
	// The cycle-domain span tracer is part of a run's deterministic
	// output (live and replay span trees must be byte-identical), so it
	// lives under the full contract; its wall-clock domain takes an
	// injected Clock, never time.Now.
	"scord/internal/obs/tracing": true,
	// Trace recording and replay are the determinism contract made
	// inspectable: a recorded trace must be byte-identical across runs and
	// a replay bit-identical to its live twin, so both packages live under
	// the full set of invariants.
	"scord/internal/tracefile": true,
	"scord/internal/replay":    true,
	// The predictive analysis is an oracle the predict gate diffs
	// byte-for-byte against the dynamic detector, so its prediction
	// order, witnesses and rendering must be a pure function of the
	// trace.
	"scord/internal/analysis/predict": true,
	// The schedule explorer's emission order, counters and verdict must be
	// a pure function of (trace, options) — byte-identical at any -jobs —
	// so it joins the core alongside predict.
	"scord/internal/analysis/explore": true,
	// Repair's suite report is promised byte-identical at any -jobs, and
	// its worklist and veto reasons name targets, blocks and sites, so
	// none of them may follow map order.
	"scord/internal/analysis/repair": true,
}

func inDeterministicCore(pkgPath string) bool { return deterministicCore[pkgPath] }

// randConstructors are the math/rand entry points that build isolated,
// seedable streams; everything else package-level draws from the shared
// global source.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		// Track the enclosing function so maporder can look for a
		// later sort of a slice filled inside a map iteration.
		var funcStack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				funcStack = append(funcStack, n)
				ast.Inspect(childBody(n), walk)
				funcStack = funcStack[:len(funcStack)-1]
				return false
			case *ast.CallExpr:
				checkWallTime(pass, st)
				checkGlobalRand(pass, st)
				checkEventHandler(pass, st)
			case *ast.RangeStmt:
				if len(funcStack) > 0 {
					checkMapOrder(pass, st, funcStack[len(funcStack)-1])
				}
			}
			return true
		}
		ast.Inspect(file, walk)
	}
	return nil
}

// childBody returns the body of a func decl or literal (possibly nil).
func childBody(n ast.Node) ast.Node {
	switch fn := n.(type) {
	case *ast.FuncDecl:
		if fn.Body != nil {
			return fn.Body
		}
	case *ast.FuncLit:
		return fn.Body
	}
	return &ast.BlockStmt{}
}

// pkgFunc resolves a call to a package-level function and returns its
// package path and name.
func pkgFunc(pass *framework.Pass, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.ObjectOf(sel.Sel).(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	if sig, isSig := fn.Type().(*types.Signature); !isSig || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

func checkWallTime(pass *framework.Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(pass, call)
	if !ok || pkg != "time" {
		return
	}
	if name == "Now" || name == "Since" {
		pass.Reportf(call.Pos(), "walltime",
			"time.%s in the deterministic core: wall-clock readings are not a function of (config, seed); derive timing from engine cycles", name)
	}
}

func checkGlobalRand(pass *framework.Pass, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(pass, call)
	if !ok || (pkg != "math/rand" && pkg != "math/rand/v2") || randConstructors[name] {
		return
	}
	pass.Reportf(call.Pos(), "globalrand",
		"rand.%s draws from the process-global source; use a seeded rand.New(rand.NewSource(...)) so runs replay", name)
}

// checkEventHandler flags goroutine launches inside function literals
// handed to the engine's At/After scheduling methods.
func checkEventHandler(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "At" && sel.Sel.Name != "After") {
		return
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isEnginePtr(sig.Recv().Type()) {
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "goroutine",
					"goroutine launched inside an engine event handler; handlers must run synchronously — the (cycle, seq) event order is the determinism contract")
			}
			return true
		})
	}
}

func isEnginePtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Engine" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	const suffix = "internal/engine"
	return p == suffix || (len(p) > len(suffix) && p[len(p)-len(suffix)-1] == '/' && p[len(p)-len(suffix):] == suffix)
}

// checkMapOrder flags map iterations whose order can leak into output:
// either the body formats directly, or it appends to a slice that the
// enclosing function never sorts.
func checkMapOrder(pass *framework.Pass, rng *ast.RangeStmt, enclosing ast.Node) {
	if _, ok := pass.TypeOf(rng.X).Underlying().(*types.Map); !ok {
		return
	}
	// Direct formatted output inside the loop body.
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, name, ok := pkgFunc(pass, call); ok && pkg == "fmt" &&
			(hasPrefix(name, "Print") || hasPrefix(name, "Fprint") || hasPrefix(name, "Sprint") ||
				hasPrefix(name, "Append")) {
			pass.Reportf(rng.Pos(), "maporder",
				"map iteration feeds fmt.%s; Go's map order is randomized, so rendered output differs across runs — iterate sorted keys", name)
			reported = true
		}
		return true
	})
	if reported {
		return
	}
	// Appends into slices that are never sorted afterwards.
	targets := map[types.Object]ast.Expr{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		if lhs, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := pass.ObjectOf(lhs); obj != nil {
				targets[obj] = as.Lhs[0]
			}
		}
		return true
	})
	if len(targets) == 0 {
		return
	}
	// Scan the whole enclosing function for sort calls on those targets.
	ast.Inspect(childBody(enclosing), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, _, ok := pkgFunc(pass, call)
		if !ok || (pkg != "sort" && pkg != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					delete(targets, pass.ObjectOf(id))
				}
				return true
			})
		}
		return true
	})
	var names []string
	for _, expr := range targets {
		names = append(names, types.ExprString(expr))
	}
	sort.Strings(names)
	for _, name := range names {
		pass.Reportf(rng.Pos(), "maporder",
			"map iteration appends to %s, which is never sorted; the slice inherits randomized map order — sort it (or the keys) before use", name)
	}
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Package dataflow is a small flow-sensitive abstract interpretation
// layer over kernel ASTs. It tracks, for every expression a kernel
// computes, the identity sources the value derives from (block, warp,
// cross-block bases, parameters, loops, memory) and the set of device
// allocations the value may point into.
//
// The interpreter propagates these facts through assignments, loops,
// conditionals and gpu.Ctx.Seq-derived index arithmetic, with an
// intraprocedural fixpoint (loop bodies are interpreted to
// stabilization) plus one level of call summaries for kernel helper
// functions: a call to a function with a *gpu.Ctx parameter whose body
// is available anywhere in the loaded World is interpreted inline.
//
// scopelint consumes the per-kernel op trace to replace its
// source-order taint heuristics.
package dataflow

import "sort"

// Dep is a bitset of the identity sources a value derives from.
type Dep uint16

const (
	// DepBlock marks values derived from c.Block: they differ between
	// blocks but are uniform within one.
	DepBlock Dep = 1 << iota
	// DepWarp marks values derived from c.Warp: they differ between the
	// warps of one block.
	DepWarp
	// DepCross marks values derived from cross-block bases —
	// c.GlobalWarp() or c.Blocks — the taint sources of the Figure 3
	// work-stealing shape.
	DepCross
	// DepParam marks values derived from a plain integer parameter of
	// the kernel (role/thread ids computed from block identity by the
	// launch wrapper).
	DepParam
	// DepLoop marks loop-carried values (induction variables and
	// anything modified inside a loop).
	DepLoop
	// DepMem marks values loaded from simulated device memory.
	DepMem
	// DepUnknown marks values the interpreter cannot analyze (host
	// computation, opaque calls).
	DepUnknown
)

// Value is the abstract value of one expression.
type Value struct {
	Deps   Dep
	Bases  []string // sorted allocation/parameter bases the value may point into
	Const  *int64   // concrete integer, when statically known
	Funcs  []*FuncVal
	Fields map[string]Value // per-field values of a struct composite
	// AnyBase marks an address whose pointees could not be resolved at
	// all: it may alias any allocation.
	AnyBase bool
}

// constVal returns a Value holding a known integer.
func constVal(n int64) Value { return Value{Const: &n} }

// IsConst reports the value's concrete integer, if known.
func (v Value) IsConst() (int64, bool) {
	if v.Const != nil {
		return *v.Const, true
	}
	return 0, false
}

// BlockVarying reports whether the value varies with block identity in
// the sense of scopelint's taint B: derived from block, warp, cross or
// integer-parameter sources.
func (v Value) BlockVarying() bool {
	return v.Deps&(DepBlock|DepWarp|DepCross|DepParam) != 0
}

// CrossDerived reports whether the value derives from cross-block bases
// (scopelint's taint A).
func (v Value) CrossDerived() bool { return v.Deps&DepCross != 0 }

// CommonBases returns the sorted intersection of two base sets.
func (a Value) CommonBases(b Value) []string {
	var out []string
	for _, x := range a.Bases {
		for _, y := range b.Bases {
			if x == y {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// mergeBases returns the sorted union of two base lists.
func mergeBases(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// join is the lattice join of two values.
func join(a, b Value) Value {
	out := Value{
		Deps:    a.Deps | b.Deps,
		Bases:   mergeBases(a.Bases, b.Bases),
		AnyBase: a.AnyBase || b.AnyBase,
	}
	if a.Const != nil && b.Const != nil && *a.Const == *b.Const {
		out.Const = a.Const
	}
	out.Funcs = append(out.Funcs, a.Funcs...)
	for _, f := range b.Funcs {
		dup := false
		for _, g := range out.Funcs {
			if g == f {
				dup = true
				break
			}
		}
		if !dup {
			out.Funcs = append(out.Funcs, f)
		}
	}
	if len(a.Fields) > 0 || len(b.Fields) > 0 {
		out.Fields = make(map[string]Value, len(a.Fields)+len(b.Fields))
		for k, v := range a.Fields {
			out.Fields[k] = v
		}
		for k, v := range b.Fields {
			if prev, ok := out.Fields[k]; ok {
				out.Fields[k] = join(prev, v)
			} else {
				out.Fields[k] = v
			}
		}
	}
	return out
}

// eq reports whether two values are equal abstract states (used by the
// loop fixpoint to detect stabilization).
func eq(a, b Value) bool {
	if a.Deps != b.Deps || a.AnyBase != b.AnyBase {
		return false
	}
	if (a.Const == nil) != (b.Const == nil) || (a.Const != nil && *a.Const != *b.Const) {
		return false
	}
	if len(a.Bases) != len(b.Bases) || len(a.Funcs) != len(b.Funcs) || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Bases {
		if a.Bases[i] != b.Bases[i] {
			return false
		}
	}
	for i := range a.Funcs {
		if a.Funcs[i] != b.Funcs[i] {
			return false
		}
	}
	for k, v := range a.Fields {
		w, ok := b.Fields[k]
		if !ok || !eq(v, w) {
			return false
		}
	}
	return true
}

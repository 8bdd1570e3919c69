package repair

import (
	"fmt"
	"sort"
	"strings"

	"scord/internal/analysis/fix"
	"scord/internal/core"
	"scord/internal/tracefile"
)

// Edit is one concrete candidate repair: a fix-vocabulary kind plus the
// anchors needed to apply it to a recorded SCTR trace (ApplyTrace).
// Edits anchor by allocation name and operation class, never by trace
// offset, so one edit applies uniformly to the primary trace, to
// perturbed schedules, and to sibling traces of the same benchmark.
type Edit struct {
	// Kind is the edit kind, in the shared fix vocabulary.
	Kind fix.Kind

	// Alloc anchors allocation-scoped edits (promote, insert-fence,
	// demote): the named device allocation whose accesses are edited.
	Alloc string

	// Scope is the scope of an inserted fence.
	Scope core.Scope

	// AfterCAS switches InsertFence from write-anchored to lock-acquire
	// anchored: a fence after every CAS, modelling the acquire fence the
	// lock protocol forgot. Alloc is ignored.
	AfterCAS bool

	// CurSites anchors InsertBarrier: the site labels on the later side
	// of the split point, taken from the witness pair's block. The
	// barrier goes, per block, before that block's first access at one
	// of these sites; the split is valid only when no site ends up on
	// both sides.
	CurSites []string

	// Sites lists the source-site labels of the racing accesses, for
	// reporting only.
	Sites []string
}

// Fix renders the edit in the shared vocabulary.
func (e Edit) Fix() fix.Fix {
	site := e.Alloc
	if len(e.Sites) > 0 {
		site = strings.Join(e.Sites, ",")
	}
	return fix.Fix{Kind: e.Kind, Site: site, Detail: e.String()}
}

func (e Edit) String() string {
	switch e.Kind {
	case fix.PromoteScope:
		return fmt.Sprintf("promote block-scope atomics on %q (and their lock-protocol fences) to device scope", e.Alloc)
	case fix.StrengthenFence:
		return "widen every explicit block-scope fence to device scope"
	case fix.InsertFence:
		if e.AfterCAS {
			return fmt.Sprintf("insert a %s-scope fence after every lock acquire (CAS)", e.Scope)
		}
		return fmt.Sprintf("insert a %s-scope fence after every write to %q", e.Scope, e.Alloc)
	case fix.InsertBarrier:
		return fmt.Sprintf("insert a block barrier before sites %v", e.CurSites)
	case fix.DemoteAtomic:
		return fmt.Sprintf("demote weak accesses to %q to device-scope atomics", e.Alloc)
	default:
		return string(e.Kind)
	}
}

// PatchStats quantifies an applied edit: the overhead cost the repair
// report publishes.
type PatchStats struct {
	// Touched counts existing ops whose semantics the edit changed.
	Touched int
	// Inserted counts ops the edit added to the stream.
	Inserted int
}

// errNoOp rejects an edit that would leave the trace unchanged: an
// inapplicable candidate, not a verified fix.
func errNoOp(e Edit) error {
	return fmt.Errorf("repair: %s: edit matches nothing in the trace", e.Kind)
}

// ApplyTrace applies the edit to a recorded op stream, returning the
// patched copy (the input is never modified). An error means the edit is
// inapplicable to this trace, not that the trace is malformed.
func ApplyTrace(e Edit, ops []tracefile.Op) ([]tracefile.Op, PatchStats, error) {
	switch e.Kind {
	case fix.PromoteScope:
		return promoteTrace(e, ops)
	case fix.StrengthenFence:
		return strengthenTrace(e, ops)
	case fix.InsertFence:
		return insertFenceTrace(e, ops)
	case fix.InsertBarrier:
		return insertBarrierTrace(e, ops)
	case fix.DemoteAtomic:
		return demoteTrace(e, ops)
	default:
		return nil, PatchStats{}, fmt.Errorf("repair: unknown edit kind %q", e.Kind)
	}
}

// allocRange resolves the edit's allocation to its address range.
func allocRange(ops []tracefile.Op, alloc string) (base, size uint64, err error) {
	for i := range ops {
		if ops[i].Kind == tracefile.OpAlloc && ops[i].Name == alloc {
			return ops[i].Base, ops[i].Bytes, nil
		}
	}
	return 0, 0, fmt.Errorf("repair: allocation %q not recorded in trace", alloc)
}

func cloneOps(ops []tracefile.Op) []tracefile.Op {
	out := make([]tracefile.Op, len(ops))
	copy(out, ops)
	return out
}

// issuer returns the warp identity of an access or fence op.
func issuer(op *tracefile.Op) (block, warp int, ok bool) {
	switch op.Kind {
	case tracefile.OpAccess:
		return op.Access.Block, op.Access.Warp, true
	case tracefile.OpFence:
		return op.Block, op.Warp, true
	}
	return 0, 0, false
}

// explicitBlockFence matches a fence the program issued (not a barrier's
// implicit one) at block scope.
func explicitBlockFence(op *tracefile.Op) bool {
	return op.Kind == tracefile.OpFence && !op.FromBarrier && op.Scope == core.ScopeBlock
}

// warpNeighbor finds the nearest op issued by the same warp as ops[i] in
// direction dir (+1 or -1), stopping at kernel boundaries.
func warpNeighbor(ops []tracefile.Op, i, dir int) int {
	b, w, ok := issuer(&ops[i])
	if !ok {
		return -1
	}
	for j := i + dir; j >= 0 && j < len(ops); j += dir {
		if ops[j].Kind == tracefile.OpKernel || ops[j].Kind == tracefile.OpKernelEnd {
			return -1
		}
		if jb, jw, ok := issuer(&ops[j]); ok && jb == b && jw == w {
			return j
		}
	}
	return -1
}

// promoteTrace widens every block-scope atomic on the allocation to
// device scope. The lock protocol rides along: the explicit block fence
// adjacent to a promoted CAS (after) or Exch (before) in the warp's
// stream is the acquire/release fence of the same protocol, so it is
// promoted too — promoting only the lock word while its fences stay
// block-scope would narrow the protocol, not repair it.
func promoteTrace(e Edit, ops []tracefile.Op) ([]tracefile.Op, PatchStats, error) {
	base, size, err := allocRange(ops, e.Alloc)
	if err != nil {
		return nil, PatchStats{}, err
	}
	out := cloneOps(ops)
	var st PatchStats
	for i := range out {
		op := &out[i]
		if op.Kind != tracefile.OpAccess || op.Access.Kind != core.KindAtomic ||
			op.Access.Scope != core.ScopeBlock || op.Access.Addr-base >= size {
			continue
		}
		op.Access.Scope = core.ScopeDevice
		st.Touched++
		dir := 0
		switch op.AtomicOp {
		case core.AtomicCAS:
			dir = +1 // acquire fence follows the CAS
		case core.AtomicExch:
			dir = -1 // release fence precedes the Exch
		}
		if dir != 0 {
			if j := warpNeighbor(out, i, dir); j >= 0 && explicitBlockFence(&out[j]) {
				out[j].Scope = core.ScopeDevice
				st.Touched++
			}
		}
	}
	if st.Touched == 0 {
		return nil, st, errNoOp(e)
	}
	return out, st, nil
}

// strengthenTrace widens every explicit block-scope fence to device
// scope.
func strengthenTrace(e Edit, ops []tracefile.Op) ([]tracefile.Op, PatchStats, error) {
	out := cloneOps(ops)
	var st PatchStats
	for i := range out {
		if explicitBlockFence(&out[i]) {
			out[i].Scope = core.ScopeDevice
			st.Touched++
		}
	}
	if st.Touched == 0 {
		return nil, st, errNoOp(e)
	}
	return out, st, nil
}

// insertFenceTrace inserts a fence after every anchor access: writes and
// atomics on the allocation, or — with AfterCAS — every lock acquire. An
// access already followed by an adequate fence of its own warp is left
// alone, keeping the edit idempotent.
func insertFenceTrace(e Edit, ops []tracefile.Op) ([]tracefile.Op, PatchStats, error) {
	var base, size uint64
	if !e.AfterCAS {
		var err error
		if base, size, err = allocRange(ops, e.Alloc); err != nil {
			return nil, PatchStats{}, err
		}
	}
	anchored := func(op *tracefile.Op) bool {
		if op.Kind != tracefile.OpAccess {
			return false
		}
		if e.AfterCAS {
			return op.AtomicOp == core.AtomicCAS
		}
		return op.Access.Kind != core.KindLoad && op.Access.Addr-base < size
	}
	var st PatchStats
	out := make([]tracefile.Op, 0, len(ops))
	for i := range ops {
		out = append(out, ops[i])
		if !anchored(&ops[i]) {
			continue
		}
		a := ops[i].Access
		if i+1 < len(ops) {
			next := &ops[i+1]
			if next.Kind == tracefile.OpFence && !next.FromBarrier &&
				next.Block == a.Block && next.Warp == a.Warp && next.Scope.Includes(e.Scope) {
				continue // already fenced here
			}
		}
		out = append(out, tracefile.Op{
			Kind:   tracefile.OpFence,
			Access: core.Access{Block: a.Block, Warp: a.Warp, Scope: e.Scope, Cycle: a.Cycle},
		})
		st.Inserted++
	}
	if st.Inserted == 0 {
		return nil, st, errNoOp(e)
	}
	return out, st, nil
}

// demoteTrace turns every weak access to the allocation into a
// device-scope atomic: the most expensive edit, always ordered.
func demoteTrace(e Edit, ops []tracefile.Op) ([]tracefile.Op, PatchStats, error) {
	base, size, err := allocRange(ops, e.Alloc)
	if err != nil {
		return nil, PatchStats{}, err
	}
	out := cloneOps(ops)
	var st PatchStats
	for i := range out {
		op := &out[i]
		if op.Kind != tracefile.OpAccess || op.Access.Strong || op.Access.Addr-base >= size {
			continue
		}
		op.Access.Kind = core.KindAtomic
		op.Access.Strong = true
		op.Access.Scope = core.ScopeDevice
		st.Touched++
	}
	if st.Touched == 0 {
		return nil, st, errNoOp(e)
	}
	return out, st, nil
}

// insertBarrierTrace inserts a block-wide barrier at the site boundary
// named by CurSites, per kernel instance and per block: a barrier marker
// plus the implicit block-scope fence every resuming warp performs
// (mirroring the recorder), then bumps the barrier counter carried by
// the block's later accesses so the detector's Table III (c) check sees
// the separation. The split is valid only when no site label lands on
// both sides of the insertion point within a block — a mid-loop split
// would claim an ordering the program point cannot provide.
func insertBarrierTrace(e Edit, ops []tracefile.Op) ([]tracefile.Op, PatchStats, error) {
	if len(e.CurSites) == 0 {
		return nil, PatchStats{}, fmt.Errorf("repair: insert-barrier edit carries no anchor sites")
	}
	curSite := map[string]bool{}
	for _, s := range e.CurSites {
		curSite[s] = true
	}

	// Segment the stream by kernel launches, then pick one insertion
	// point per (segment, block): before the block's first access at an
	// anchor site.
	type blockKey struct{ seg, block int }
	insertAt := map[int][]tracefile.Op{} // original index -> ops to insert before it
	seg := 0
	segStart := 0
	var st PatchStats

	plan := func(lo, hi int) error {
		// One pass per segment: site inventory and warps per block.
		sitesBefore := map[blockKey]map[string]bool{}
		sitesAfter := map[blockKey]map[string]bool{}
		warps := map[blockKey]map[int]bool{}
		pos := map[blockKey]int{}
		for i := lo; i < hi; i++ {
			op := &ops[i]
			if op.Kind != tracefile.OpAccess {
				continue
			}
			k := blockKey{seg, op.Access.Block}
			if warps[k] == nil {
				warps[k] = map[int]bool{}
				sitesBefore[k] = map[string]bool{}
				sitesAfter[k] = map[string]bool{}
			}
			warps[k][op.Access.Warp] = true
			p, planned := pos[k]
			if !planned && curSite[op.Access.Site] {
				pos[k] = i
				p, planned = i, true
			}
			if planned && i >= p {
				sitesAfter[k][op.Access.Site] = true
			} else {
				sitesBefore[k][op.Access.Site] = true
			}
		}
		// Visit blocks in order, so a failing split always names the
		// lowest failing block and its first straddling site.
		keys := make([]blockKey, 0, len(pos))
		for k := range pos {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].block < keys[j].block })
		for _, k := range keys {
			p := pos[k]
			if sitesBefore[k][""] || sitesAfter[k][""] {
				return fmt.Errorf("repair: block %d has unlabeled accesses; barrier split cannot be anchored", k.block)
			}
			var straddle []string
			for s := range sitesAfter[k] {
				if sitesBefore[k][s] {
					straddle = append(straddle, s)
				}
			}
			if len(straddle) > 0 {
				sort.Strings(straddle)
				return fmt.Errorf("repair: site %q appears on both sides of the barrier point in block %d (mid-loop split)", straddle[0], k.block)
			}
			var ws []int
			for w := range warps[k] {
				ws = append(ws, w)
			}
			sort.Ints(ws)
			cyc := ops[p].Cycle
			ins := []tracefile.Op{{
				Kind:      tracefile.OpBarrier,
				Access:    core.Access{Block: k.block, Cycle: cyc},
				Control:   &tracefile.Control{Warps: len(ws)},
				BarrierID: ops[p].Access.Barrier + 1,
			}}
			for _, w := range ws {
				ins = append(ins, tracefile.Op{
					Kind:        tracefile.OpFence,
					Access:      core.Access{Block: k.block, Warp: w, Scope: core.ScopeBlock, Cycle: cyc},
					FromBarrier: true,
				})
			}
			insertAt[p] = ins
			st.Inserted += len(ins)
		}
		return nil
	}

	for i := 0; i <= len(ops); i++ {
		if i == len(ops) || ops[i].Kind == tracefile.OpKernel {
			if err := plan(segStart, i); err != nil {
				return nil, PatchStats{}, err
			}
			segStart = i
			seg++
		}
	}
	if st.Inserted == 0 {
		return nil, st, errNoOp(e)
	}

	// Rebuild with insertions and barrier-counter bumps.
	out := make([]tracefile.Op, 0, len(ops)+st.Inserted)
	bumped := map[int]bool{} // block -> past its insertion point in this segment
	for i := range ops {
		if ops[i].Kind == tracefile.OpKernel {
			bumped = map[int]bool{}
		}
		if ins, ok := insertAt[i]; ok {
			out = append(out, ins...)
			bumped[ins[0].Block] = true
		}
		op := ops[i]
		switch op.Kind {
		case tracefile.OpAccess:
			if bumped[op.Access.Block] {
				op.Access.Barrier++
				st.Touched++
			}
		case tracefile.OpBarrier:
			if bumped[op.Block] {
				op.BarrierID++
			}
		}
		out = append(out, op)
	}
	return out, st, nil
}

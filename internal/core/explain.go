package core

import (
	"fmt"
	"strings"
)

// Describe renders a race record on one line: its scope and kind, its
// location as resolved by locate, its site, the two accesses and how
// often it was seen. The live device and the replay engine both render
// records through it, so their reports compare as text.
func Describe(r Record, locate func(addr uint64) string) string {
	scope := "device-scope"
	if r.SameBlock {
		scope = "block-scope"
	}
	return fmt.Sprintf("%s %s race on %s site=%q prev=(b%d,w%d) cur=(b%d,w%d) x%d",
		scope, r.Kind, locate(r.Addr), r.Site,
		r.PrevBlock, r.PrevWarp, r.CurBlock, r.CurWarp, r.Count)
}

// Explain renders a multi-line human diagnosis of a race record: what the
// detector observed, why it is a race under the scoped (HRF) memory model,
// and the usual fix. locate resolves a data address to a human-readable
// location (pass nil to print raw addresses).
func Explain(r Record, locate func(addr uint64) string) string {
	loc := fmt.Sprintf("%#x", r.Addr)
	if locate != nil {
		loc = locate(r.Addr)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "race on %s between block %d/warp %d and block %d/warp %d",
		loc, r.PrevBlock, r.PrevWarp, r.CurBlock, r.CurWarp)
	if r.Site != "" {
		fmt.Fprintf(&b, " (at %s)", r.Site)
	}
	fmt.Fprintf(&b, ", seen %d time(s)\n", r.Count)

	switch r.Kind {
	case RaceMissingBlockFence:
		b.WriteString(
			"  what: conflicting accesses from two warps of the same threadblock with no\n" +
				"        memory fence by the earlier warp in between.\n" +
				"  fix:  order the accesses with __threadfence_block() (or a __syncthreads()\n" +
				"        barrier if the whole block must also rendezvous).\n")
	case RaceMissingDeviceFence:
		b.WriteString(
			"  what: conflicting accesses from different threadblocks with no device-scope\n" +
				"        fence by the earlier warp in between. A block-scope fence, if any,\n" +
				"        does not reach threads outside the block.\n" +
				"  fix:  use __threadfence() (device scope) before publishing data consumed\n" +
				"        by other blocks, and signal through a device-scope atomic.\n")
	case RaceNotStrong:
		b.WriteString(
			"  what: the accesses are ordered by a fence, but at least one of them is a\n" +
				"        plain (non-volatile) access — fences only order strong operations,\n" +
				"        and non-coherent L1 caches may still serve stale values.\n" +
				"  fix:  qualify the shared location volatile (or access it atomically).\n")
	case RaceScopedAtomic:
		b.WriteString(
			"  what: an atomic executed with block scope on a location that another\n" +
				"        threadblock also touches. Block-scope atomics take effect in the\n" +
				"        issuing SM's cache and are invisible to other SMs.\n" +
				"  fix:  widen the atomic to device scope (e.g. atomicAdd instead of\n" +
				"        atomicAdd_block) wherever any other block can access the location.\n")
	case RaceMissingLockLoad, RaceMissingLockStore:
		b.WriteString(
			"  what: the location is protected by an inferred lock (atomicCAS+fence ...\n" +
				"        fence+atomicExch), but these two accesses hold no common lock.\n" +
				"        Typical causes: one path skips the lock, the paths use different\n" +
				"        locks, or an acquire is missing its fence (the lock never takes\n" +
				"        effect for lockset purposes).\n" +
				"  fix:  take the same lock on every path that touches the location, and\n" +
				"        keep the acquire's fence at the lock's full scope.\n")
	case RaceDivergedWarp:
		b.WriteString(
			"  what: two threads of one diverged warp touched common data from different\n" +
				"        branch paths — with Independent Thread Scheduling these interleave.\n" +
				"  fix:  synchronize with __syncwarp() at reconvergence, or restructure so\n" +
				"        divergent paths touch disjoint data.\n")
	default:
		fmt.Fprintf(&b, "  what: %s\n", r.Kind)
	}

	scope := "the conflicting accesses came from different threadblocks (device-scope conflict)"
	if r.SameBlock {
		scope = "the conflicting accesses came from the same threadblock (block-scope conflict)"
	}
	fmt.Fprintf(&b, "  note: %s.\n", scope)
	return b.String()
}

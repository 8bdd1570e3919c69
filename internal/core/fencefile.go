package core

// fenceIDBits is the width of each fence counter. Six bits, as in the
// paper: overflow can in principle declare a false race if exactly 64
// fences execute between conflicting accesses, but "such cases are
// practically non-existent" (Section IV-A).
const fenceIDBits = 6
const fenceIDMask = 1<<fenceIDBits - 1

// fenceEntry holds the two 6-bit counters of one fence-file slot: the IDs
// of the latest block-scope and device-scope fences executed by a warp.
type fenceEntry struct {
	blk uint8
	dev uint8
}

// FenceFile is the detector-resident table of fence counters, indexed by
// the combination of threadblock and warp ID (Figure 6). Like the
// hardware's, it is indexed by the low bits of the block ID, so it aliases
// for grids beyond 128 concurrently-tracked blocks.
//
// Rows (one per block slot) are grown on the first fence of a slot; a
// slot past the grown rows reads as zero counters. The zero value is an
// empty file that costs nothing until a warp fences.
type FenceFile struct {
	rows [][32]fenceEntry
}

func ffIndex(blockID, warpID int) (int, int) {
	return blockID & 127, warpID & 31
}

// OnFence increments the counter matching the fence's scope for the given
// warp. A device-scope fence bumps only the device counter; the race
// condition for same-block conflicts (Table IV (a)) compares both
// counters, so a device fence also discharges block-level ordering.
func (f *FenceFile) OnFence(blockID, warpID int, scope Scope) {
	b, w := ffIndex(blockID, warpID)
	if b >= len(f.rows) {
		f.rows = append(f.rows, make([][32]fenceEntry, b+1-len(f.rows))...)
	}
	e := &f.rows[b][w]
	if scope == ScopeBlock {
		e.blk = (e.blk + 1) & fenceIDMask
	} else {
		e.dev = (e.dev + 1) & fenceIDMask
	}
}

// Get returns the current fence IDs of a warp.
func (f *FenceFile) Get(blockID, warpID int) (blk, dev uint8) {
	b, w := ffIndex(blockID, warpID)
	if b >= len(f.rows) {
		return 0, 0
	}
	e := f.rows[b][w]
	return e.blk, e.dev
}

// Reset zeroes every counter (kernel boundary): the rows grown so far are
// cleared in place.
func (f *FenceFile) Reset() { clear(f.rows) }

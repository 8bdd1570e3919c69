package replay

import (
	"testing"

	"scord/internal/core"
	"scord/internal/tracefile"
)

func acc(block, warp int, addr uint64, kind core.AccessKind, aop core.AtomicOp) tracefile.Op {
	return tracefile.Op{
		Kind:     tracefile.OpAccess,
		Access:   core.Access{Block: block, Warp: warp, Addr: addr, Kind: kind},
		AtomicOp: aop,
	}
}

func TestSwappable(t *testing.T) {
	fence := tracefile.Op{Kind: tracefile.OpFence, Access: core.Access{Block: 0, Warp: 0}}
	barrier := tracefile.Op{Kind: tracefile.OpBarrier}
	alloc := tracefile.Op{Kind: tracefile.OpAlloc, Control: &tracefile.Control{Name: "a"}}
	kernel := tracefile.Op{Kind: tracefile.OpKernel, Control: &tracefile.Control{Name: "k"}}

	cases := []struct {
		name string
		x, y tracefile.Op
		want bool
	}{
		{"different warps, different words",
			acc(0, 0, 0, core.KindLoad, core.AtomicOther),
			acc(0, 1, 64, core.KindStore, core.AtomicOther), true},
		{"same warp never swaps",
			acc(0, 1, 0, core.KindLoad, core.AtomicOther),
			acc(0, 1, 64, core.KindStore, core.AtomicOther), false},
		{"same block different warp ok",
			acc(1, 0, 0, core.KindStore, core.AtomicOther),
			acc(1, 1, 64, core.KindStore, core.AtomicOther), true},
		{"same warp id in different blocks swaps",
			acc(0, 2, 0, core.KindLoad, core.AtomicOther),
			acc(1, 2, 64, core.KindLoad, core.AtomicOther), true},
		{"same word plain accesses swap",
			acc(0, 0, 4, core.KindStore, core.AtomicOther),
			acc(0, 1, 4, core.KindLoad, core.AtomicOther), true},
		{"same word atomic kind blocks",
			acc(0, 0, 4, core.KindAtomic, core.AtomicOther),
			acc(0, 1, 4, core.KindLoad, core.AtomicOther), false},
		{"same word release flavour blocks",
			acc(0, 0, 4, core.KindStore, core.AtomicRelease),
			acc(0, 1, 4, core.KindLoad, core.AtomicOther), false},
		{"same word acquire flavour blocks",
			acc(0, 0, 4, core.KindStore, core.AtomicOther),
			acc(0, 1, 4, core.KindLoad, core.AtomicAcquire), false},
		{"different words atomic ok",
			acc(0, 0, 4, core.KindAtomic, core.AtomicOther),
			acc(0, 1, 128, core.KindLoad, core.AtomicOther), true},
		{"fence blocks", fence, acc(0, 1, 0, core.KindLoad, core.AtomicOther), false},
		{"barrier blocks", acc(0, 0, 0, core.KindLoad, core.AtomicOther), barrier, false},
		{"alloc blocks", alloc, acc(0, 1, 0, core.KindLoad, core.AtomicOther), false},
		{"kernel blocks", acc(0, 0, 0, core.KindLoad, core.AtomicOther), kernel, false},
	}
	for _, c := range cases {
		if got := Swappable(c.x, c.y); got != c.want {
			t.Errorf("%s: Swappable = %v, want %v", c.name, got, c.want)
		}
	}
}

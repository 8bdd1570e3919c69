// Package mem implements the GPU's device (global) memory: a word-addressed
// arena with a named bump allocator and host-side access helpers. Addresses
// are byte addresses; all simulated accesses are 4-byte-word granular, which
// is also the granularity at which ScoRD tracks race metadata.
package mem

import (
	"fmt"
	"sort"
)

// Addr is a device byte address.
type Addr uint64

// WordBytes is the access and metadata-tracking granularity.
const WordBytes = 4

// Allocation describes one named region of device memory.
type Allocation struct {
	Name string
	Base Addr
	Size uint64 // bytes
}

// Memory is the device memory arena. The backing words hold the
// authoritative globally-visible value of every location (conceptually the
// L2 + DRAM contents; per-SM L1s keep possibly-stale copies on top).
// A Memory built by NewMap has no backing words: it is the allocation map
// alone.
type Memory struct {
	words  []uint32
	size   uint64
	next   Addr
	allocs []Allocation
}

// New creates an arena of the given size in bytes (must be a positive
// multiple of the word size).
func New(size uint64) *Memory {
	if size == 0 || size%WordBytes != 0 {
		panic(fmt.Sprintf("mem: invalid arena size %d", size))
	}
	return &Memory{
		words: make([]uint32, size/WordBytes),
		size:  size,
	}
}

// NewMap creates the allocation map of an arena of the given size, with no
// data: Alloc, FindAlloc, Locate and Describe work as on New's arena,
// while reading or writing a word panics. Replay and trace analysis use it
// to resolve recorded addresses without paying for the arena's contents.
func NewMap(size uint64) *Memory {
	if size == 0 || size%WordBytes != 0 {
		panic(fmt.Sprintf("mem: invalid arena size %d", size))
	}
	return &Memory{size: size}
}

// Size returns the arena size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Used returns the number of bytes handed out by Alloc so far.
func (m *Memory) Used() uint64 { return uint64(m.next) }

// Alloc reserves size bytes under the given name, aligned to 128 bytes so
// distinct allocations never share a cache line. It panics if the arena is
// exhausted — benchmark inputs are sized by the caller.
func (m *Memory) Alloc(name string, size uint64) Addr {
	const align = 128
	base := (uint64(m.next) + align - 1) &^ (align - 1)
	padded := (size + WordBytes - 1) &^ (WordBytes - 1)
	if base+padded > m.size {
		panic(fmt.Sprintf("mem: out of device memory allocating %q (%d bytes, %d used of %d)",
			name, size, m.next, m.size))
	}
	m.allocs = append(m.allocs, Allocation{Name: name, Base: Addr(base), Size: padded})
	m.next = Addr(base + padded)
	return Addr(base)
}

// AllocWords reserves n 4-byte words under the given name.
func (m *Memory) AllocWords(name string, n int) Addr {
	return m.Alloc(name, uint64(n)*WordBytes)
}

// Reset drops all allocations and zeroes the arena.
func (m *Memory) Reset() {
	m.next = 0
	m.allocs = m.allocs[:0]
	for i := range m.words {
		m.words[i] = 0
	}
}

// FindAlloc returns the allocation with the given name.
func (m *Memory) FindAlloc(name string) (Allocation, bool) {
	for _, al := range m.allocs {
		if al.Name == name {
			return al, true
		}
	}
	return Allocation{}, false
}

// Locate maps an address to the allocation containing it. The second result
// is false for addresses outside every allocation.
func (m *Memory) Locate(a Addr) (Allocation, bool) {
	i := sort.Search(len(m.allocs), func(i int) bool { return m.allocs[i].Base > a })
	if i == 0 {
		return Allocation{}, false
	}
	al := m.allocs[i-1]
	if uint64(a) < uint64(al.Base)+al.Size {
		return al, true
	}
	return Allocation{}, false
}

// Describe renders an address as "name+offset" for race reports, or a raw
// hex address when it falls outside every allocation.
func (m *Memory) Describe(a Addr) string {
	if al, ok := m.Locate(a); ok {
		return fmt.Sprintf("%s+%#x", al.Name, uint64(a-al.Base))
	}
	return fmt.Sprintf("%#x", uint64(a))
}

// WordIndex converts a byte address to its word index, panicking on
// out-of-range addresses (a simulator bug, not a program error).
func (m *Memory) WordIndex(a Addr) int {
	i := int(a / WordBytes)
	if i < 0 || i >= len(m.words) {
		if m.words == nil {
			panic(fmt.Sprintf("mem: data access at %#x on an allocation map", uint64(a)))
		}
		panic(fmt.Sprintf("mem: address %#x outside arena of %d bytes", uint64(a), m.size))
	}
	return i
}

// Read returns the globally-visible value of the word at a.
func (m *Memory) Read(a Addr) uint32 { return m.words[m.WordIndex(a)] }

// Write sets the globally-visible value of the word at a.
func (m *Memory) Write(a Addr, v uint32) { m.words[m.WordIndex(a)] = v }

// Words returns the number of words in the arena.
func (m *Memory) Words() int { return len(m.words) }

// HostWrite copies values into device memory starting at base, as a
// cudaMemcpy(HostToDevice) would. It is only legal between kernels.
func (m *Memory) HostWrite(base Addr, vals []uint32) {
	for i, v := range vals {
		m.Write(base+Addr(i*WordBytes), v)
	}
}

// HostRead copies n words out of device memory starting at base.
func (m *Memory) HostRead(base Addr, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = m.Read(base + Addr(i*WordBytes))
	}
	return out
}

// HostFill sets n words starting at base to v.
func (m *Memory) HostFill(base Addr, n int, v uint32) {
	for i := 0; i < n; i++ {
		m.Write(base+Addr(i*WordBytes), v)
	}
}

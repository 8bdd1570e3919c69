package core

import (
	"math/rand"
	"testing"

	"scord/internal/config"
	"scord/internal/stats"
)

var benchDet *Detector

// benchAccesses is a fixed seeded stream over a 2 MB arena: 16 blocks of
// 8 warps, a hot 4 KB region most accesses revisit, and loads, stores and
// device- or block-scope atomics in a 6:3:1 mix.
func benchAccesses() []Access {
	rng := rand.New(rand.NewSource(1))
	out := make([]Access, 4096)
	for i := range out {
		a := Access{
			Block:   rng.Intn(16),
			Warp:    rng.Intn(8),
			Barrier: uint8(rng.Intn(3)),
			Strong:  rng.Intn(2) == 0,
			Scope:   ScopeDevice,
		}
		if rng.Intn(4) != 0 {
			a.Addr = uint64(rng.Intn(1<<10)) * 4
		} else {
			a.Addr = uint64(rng.Intn(1<<19)) * 4
		}
		switch k := rng.Intn(10); {
		case k < 6:
			a.Kind = KindLoad
		case k < 9:
			a.Kind = KindStore
		default:
			a.Kind, a.Strong = KindAtomic, true
			if rng.Intn(2) == 0 {
				a.Scope = ScopeBlock
			}
		}
		out[i] = a
	}
	return out
}

// BenchmarkCheckAccess reports the cost of one detector check, metadata
// lookup and update included, in the base design and in ScoRD's cached
// mode.
func BenchmarkCheckAccess(b *testing.B) {
	stream := benchAccesses()
	for _, mode := range []config.DetectorMode{config.ModeFull4B, config.ModeCached} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := config.Default().Detector
			cfg.Mode = mode
			d := NewDetector(cfg, 1<<19, 1<<21, &stats.Stats{})
			d.ResetForKernel()
			for _, a := range stream {
				d.CheckAccess(a) // first touches: time steady-state checks
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.CheckAccess(stream[i%len(stream)])
			}
			benchDet = d
		})
	}
}

// BenchmarkNewDetector reports the cost of building a base-design
// detector for the default 2 MB arena and starting a kernel on it: what a
// replay pays per model before its first op.
func BenchmarkNewDetector(b *testing.B) {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	var st stats.Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := NewDetector(cfg, 1<<19, 1<<21, &st)
		d.ResetForKernel()
		benchDet = d
	}
}

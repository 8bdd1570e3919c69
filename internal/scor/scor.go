// Package scor implements the ScoR benchmark suite of the paper (Section
// III-B): seven applications and, in the micro subpackage, thirty-two
// microbenchmarks, all exercising scoped synchronization. Every benchmark
// is correctly synchronized by default and exposes named race injections
// that introduce the scoped and non-scoped races of Table II.
package scor

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/mem"
)

// splitmix64 is the SplitMix64 finalizer (Steele et al.), a bijective
// avalanche mix on 64-bit words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixSeed derives an RNG seed from the device seed and a per-benchmark
// salt. An earlier version mixed linearly (Seed*K + salt), which made
// distinct (seed, salt) pairs collide whenever seed deltas cancel salt
// deltas (e.g. seed 1 / salt K against seed 2 / salt 0); feeding each
// input through splitmix64 avalanches every bit instead.
func mixSeed(seed, salt int64) int64 {
	return int64(splitmix64(splitmix64(uint64(seed)) ^ uint64(salt)))
}

// newRNG derives a benchmark-local deterministic RNG from the device seed.
func newRNG(d *gpu.Device, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(mixSeed(d.Config().Seed, salt)))
}

// RaceSpec declares one unique race a benchmark configuration is expected
// to produce: the allocation it lands on, the acceptable detector verdicts,
// and optionally a source-site prefix that records must carry.
type RaceSpec struct {
	ID    string // stable identifier, e.g. "gcol.steal.block-atomic"
	Alloc string // allocation-name prefix the racing address belongs to
	Kinds []core.RaceKind
	Site  string // site prefix; empty accepts any site
}

// Matches reports whether a detector record satisfies this spec.
func (s RaceSpec) Matches(allocName string, r core.Record) bool {
	if !strings.HasPrefix(allocName, s.Alloc) {
		return false
	}
	if s.Site != "" && !strings.HasPrefix(r.Site, s.Site) {
		return false
	}
	for _, k := range s.Kinds {
		if r.Kind == k {
			return true
		}
	}
	return false
}

// Benchmark is one member of the suite.
type Benchmark interface {
	// Name returns the short name used in the paper's tables (MM, RED, ...).
	Name() string
	// Injections lists the benchmark's race-injection switches.
	Injections() []string
	// ExpectedRaces returns the unique races the given injection set must
	// produce (empty set => correctly synchronized, zero races expected).
	ExpectedRaces(active []string) []RaceSpec
	// Run sets up device memory, launches the kernels and, when no
	// injections are active, verifies the functional output.
	Run(d *gpu.Device, active []string) error
}

// has reports whether an injection switch is active.
func has(active []string, name string) bool {
	for _, a := range active {
		if a == name {
			return true
		}
	}
	return false
}

// validate panics on unknown injection names — a harness bug, not a
// simulation outcome.
func validateInjections(b Benchmark, active []string) {
	known := b.Injections()
	for _, a := range active {
		found := false
		for _, k := range known {
			if a == k {
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("scor: benchmark %s has no injection %q (known: %v)", b.Name(), a, known))
		}
	}
}

// --- kernel-side synchronization helpers -----------------------------------

// spinBound is the CAS-attempt budget of the lock helpers. Correctly
// synchronized benchmarks never approach it; with an injected wrong-scope
// release, a lock can appear held forever to other SMs, and the helper
// then barges into the critical section instead of hanging the simulation
// (the race manifests as broken mutual exclusion either way).
const spinBound = 3000

// SpinLock acquires a lock variable with the CUDA acquire pattern: a CAS
// loop at casScope followed by a fence at fenceScope. The correct pattern
// uses equal scopes; injections pass narrower ones.
func SpinLock(c *gpu.Ctx, l mem.Addr, casScope, fenceScope gpu.Scope) {
	SpinLockNoFence(c, l, casScope)
	c.Fence(fenceScope)
}

// SpinLockNoFence acquires without the trailing fence (the missing-fence
// injection).
func SpinLockNoFence(c *gpu.Ctx, l mem.Addr, casScope gpu.Scope) {
	for i := 0; i < spinBound; i++ {
		if c.AtomicCAS(l, 0, 1, casScope) == 0 {
			return
		}
		c.Work(20)
	}
}

// Unlock releases with the CUDA release pattern: a fence at fenceScope
// followed by an Exch at exchScope.
func Unlock(c *gpu.Ctx, l mem.Addr, fenceScope, exchScope gpu.Scope) {
	c.Fence(fenceScope)
	c.AtomicExch(l, 0, exchScope)
}

// Signal sets a device-scope flag.
func Signal(c *gpu.Ctx, f mem.Addr) { c.AtomicExch(f, 1, gpu.ScopeDevice) }

// WaitFlag spins until the flag reads v, using atomic reads (the
// atomicAdd-of-zero idiom) so the spin itself is race-free.
func WaitFlag(c *gpu.Ctx, f mem.Addr, v uint32) {
	for c.AtomicAdd(f, 0, gpu.ScopeDevice) != v {
		c.Work(25)
	}
}

// Arrive increments a device-scope arrival counter and returns the new
// count — the standard last-block-detection idiom.
func Arrive(c *gpu.Ctx, ctr mem.Addr) uint32 {
	return c.AtomicAdd(ctr, 1, gpu.ScopeDevice) + 1
}

// waitAtLeastBounded spins (with atomic reads) until the flag reaches at
// least v, giving up after the spin budget so injected scoped-atomic races
// degrade results instead of hanging the simulation. It reports whether
// the condition was met.
func waitAtLeastBounded(c *gpu.Ctx, f mem.Addr, v uint32, spins int) bool {
	for i := 0; i < spins; i++ {
		if c.AtomicAdd(f, 0, gpu.ScopeDevice) >= v {
			return true
		}
		c.Work(25)
	}
	return false
}

// --- result matching ---------------------------------------------------------

// MatchResult summarizes detector records against a benchmark's expected
// races.
type MatchResult struct {
	Expected   int      // unique races the configuration should produce
	Caught     []string // spec IDs matched by at least one record
	Missed     []string // spec IDs with no matching record (false negatives)
	FalsePos   []core.Record
	AllRecords int
}

// MatchRaces compares detector records against the expected specs,
// resolving record addresses to allocation names via the device's memory
// map. Several specs may share one ID (a primary race plus its cascades);
// the ID counts as one expected race, caught when any of its specs match.
func MatchRaces(d *gpu.Device, specs []RaceSpec) MatchResult {
	return MatchRecords(d.Mem(), d.Races(), specs)
}

// MatchRecords is MatchRaces over an explicit record list (e.g. from one
// of the Table VIII comparison models).
func MatchRecords(m *mem.Memory, recs []core.Record, specs []RaceSpec) MatchResult {
	var res MatchResult
	ids := make(map[string]bool)
	for _, s := range specs {
		ids[s.ID] = false
	}
	res.Expected = len(ids)
	res.AllRecords = len(recs)
	for _, r := range recs {
		al, ok := m.Locate(mem.Addr(r.Addr))
		name := ""
		if ok {
			name = al.Name
		}
		matched := false
		for _, s := range specs {
			if s.Matches(name, r) {
				ids[s.ID] = true
				matched = true
			}
		}
		if !matched {
			res.FalsePos = append(res.FalsePos, r)
		}
	}
	for id, hit := range ids {
		if hit {
			res.Caught = append(res.Caught, id)
		} else {
			res.Missed = append(res.Missed, id)
		}
	}
	sort.Strings(res.Caught)
	sort.Strings(res.Missed)
	return res
}

// Apps returns the seven applications of Table II in paper order.
func Apps() []Benchmark {
	return []Benchmark{
		NewMM(), NewRED(), NewR110(), NewGCOL(), NewGCON(), NewConv1D(), NewUTS(),
	}
}

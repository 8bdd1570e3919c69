package gpu

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"scord/internal/config"
	"scord/internal/mem"
)

// TestPanicSurfacesOnLaunchCaller: a panic in kernel code or in simulator
// code serving a warp runs on whichever goroutine holds the baton, yet the
// caller of Launch recovers it, named after the warp it belongs to.
func TestPanicSurfacesOnLaunchCaller(t *testing.T) {
	const simMsg, kernelMsg = "outside arena", "AtLane(99) outside warp"
	cases := []struct {
		name            string
		blocks, threads int
		block, warp     int  // the faulting warp
		later           bool // fault after the warp's first request
		kernel          bool // fault in kernel code, else in the simulator
		wantContains    string
	}{
		{"simulator/first-request", 4, 128, 2, 1, false, false, simMsg},
		{"simulator/later-request", 4, 128, 2, 1, true, false, simMsg},
		{"kernel/first-request", 4, 128, 2, 1, false, true, kernelMsg},
		{"kernel/later-request", 4, 128, 2, 1, true, true, kernelMsg},
		// One warp per block: 120 blocks fit at once, so block 190 runs in
		// a later wave, started by blockDone on a warp goroutine.
		{"kernel/second-wave-before-request", 200, 32, 190, 0, false, true, kernelMsg},
		{"kernel/second-wave-after-request", 200, 32, 190, 0, true, true, kernelMsg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDev(t, config.Default())
			x := d.Alloc("x", 64)
			kernel := func(c *Ctx) {
				faulty := c.Block == tc.block && c.Warp == tc.warp
				if faulty && tc.later {
					c.Load(x)
				}
				if faulty {
					if tc.kernel {
						c.AtLane(99)
					} else {
						c.LoadV(1 << 40)
					}
				}
				c.Store(x+mem.Addr(c.Warp*4), 1)
				c.Load(x)
			}
			r := launchRecover(d, tc.blocks, tc.threads, kernel)
			p, ok := r.(*WarpPanic)
			if !ok {
				t.Fatalf("recovered %T %v, want *WarpPanic", r, r)
			}
			if p.Kernel != "faulty" || p.Block != tc.block || p.Warp != tc.warp {
				t.Errorf("blamed kernel %q block %d warp %d, want %q block %d warp %d",
					p.Kernel, p.Block, p.Warp, "faulty", tc.block, tc.warp)
			}
			if !strings.Contains(fmt.Sprint(p.Value), tc.wantContains) {
				t.Errorf("original value %v lacks %q", p.Value, tc.wantContains)
			}
			msg := p.Error()
			want := fmt.Sprintf("block %d warp %d", tc.block, tc.warp)
			if !strings.Contains(msg, want) || !strings.Contains(msg, tc.wantContains) {
				t.Errorf("message %q lacks %q or %q", msg, want, tc.wantContains)
			}
			if len(p.Stack) == 0 {
				t.Error("no stack")
			}
		})
	}
}

// TestLaunchCycleLimit: the launch's budget holds across hand-offs. The
// drain that meets an event past the cycle limit runs on a warp goroutine,
// and Launch still returns the runaway error.
func TestLaunchCycleLimit(t *testing.T) {
	d := newDev(t, config.Default())
	err := d.Launch("spin", 2, 64, func(c *Ctx) {
		for {
			c.Work(1 << 30)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want the cycle limit", err)
	}
}

// TestFailedLaunchEndsWarps: a failed launch leaves no warp goroutine
// behind, whether a warp panicked, in the first wave of blocks or in a
// later one that a warp goroutine dispatched, or the cycle budget ran
// out. Before stopWarps, each of the five launches that fault once every
// warp started left its 15 other warps parked. The deadlock exit shares the cleanup (simulate
// runs it however the drain ends) but no kernel reaches it: a barrier
// that an exited warp will never reach is released.
func TestFailedLaunchEndsWarps(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines over the baseline of %d", what, runtime.NumGoroutine()-base, base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	fault := func(blocks, tpb, block, warp int, later bool) {
		d := newDev(t, config.Default())
		x := d.Alloc("x", 64)
		r := launchRecover(d, blocks, tpb, func(c *Ctx) {
			faulty := c.Block == block && c.Warp == warp
			if faulty && later {
				c.Load(x)
			}
			if faulty {
				c.AtLane(99)
			}
			c.Store(x+mem.Addr(c.Warp*4), 1)
			c.Load(x)
		})
		if _, ok := r.(*WarpPanic); !ok {
			t.Fatalf("recovered %T %v, want *WarpPanic", r, r)
		}
	}
	for i := 0; i < 5; i++ {
		fault(4, 128, 2, 1, true)
	}
	settled("five panics once every warp started")
	fault(4, 128, 2, 1, false)
	fault(200, 32, 190, 0, false)
	fault(200, 32, 190, 0, true)
	settled("panics before the first request and in a later wave")
	d := newDev(t, config.Default())
	err := d.Launch("spin", 2, 64, func(c *Ctx) {
		for {
			c.Work(1 << 30)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("err = %v, want the cycle limit", err)
	}
	settled("cycle limit")
}

// launchRecover launches k and returns what a recover around Launch sees.
func launchRecover(d *Device, blocks, tpb int, k Kernel) (r any) {
	defer func() { r = recover() }()
	if err := d.Launch("faulty", blocks, tpb, k); err != nil {
		return err
	}
	return nil
}

// tickCounter is a Probe counting its ticks: one per serviced warp request
// plus one at the end of each launch.
type tickCounter struct{ n uint64 }

func (c *tickCounter) Tick(uint64) { c.n++ }

// syncKernel issues scalar traffic in the shape of the suite's sync-class
// apps: loads, stores, a fence and a barrier per round.
func syncKernel(x mem.Addr, rounds int) Kernel {
	return func(c *Ctx) {
		own := x + mem.Addr(c.GlobalWarp()*4)
		for i := 0; i < rounds; i++ {
			v := c.Load(own)
			c.Store(own, v+1)
			c.Load(x + mem.Addr(((c.GlobalWarp()+i)%64)*4))
			c.Fence(ScopeDevice)
			c.SyncThreads()
		}
	}
}

// syncDevice returns a fresh device that counts its warp requests, and
// the sync kernel over a buffer on it.
func syncDevice(tb testing.TB, rounds int) (*Device, *tickCounter, Kernel) {
	tb.Helper()
	d, err := New(config.Default())
	if err != nil {
		tb.Fatal(err)
	}
	ticks := new(tickCounter)
	d.SetProbe(ticks)
	return d, ticks, syncKernel(d.Alloc("x", 64), rounds)
}

// launchAllocs launches k and returns the heap allocations Launch made.
func launchAllocs(tb testing.TB, d *Device, blocks int, k Kernel) uint64 {
	tb.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := d.Launch("sync", blocks, 128, k)
	runtime.ReadMemStats(&m1)
	if err != nil {
		tb.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestWarpRequestAllocations gates the per-request path: scheduling,
// servicing and resuming a warp request allocates nothing, so only warp
// and block set-up allocate.
func TestWarpRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	d, ticks, k := syncDevice(t, 16)
	allocs := launchAllocs(t, d, 8, k)
	reqs := ticks.n - 1 // one tick ends the launch
	if reqs == 0 {
		t.Fatal("no requests serviced")
	}
	if per := float64(allocs) / float64(reqs); per >= 0.5 {
		t.Fatalf("%d allocations over %d warp requests = %.2f per request, want < 0.5", allocs, reqs, per)
	}
}

// BenchmarkWarpRequest reports the host cost of one serviced warp request
// of a sync-class kernel: issue, service, event scheduling and the switch
// to the next warp. Device set-up is not timed.
func BenchmarkWarpRequest(b *testing.B) {
	b.ReportAllocs()
	var reqs, allocs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, ticks, k := syncDevice(b, 32)
		b.StartTimer()
		allocs += launchAllocs(b, d, 30, k)
		reqs += ticks.n - 1
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/request")
	b.ReportMetric(float64(allocs)/float64(reqs), "allocs/request")
}

package replay_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/obs"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/stats"
	"scord/internal/tracefile"
)

// liveRun executes one micro on a live device with trace recording
// attached and returns the trace bytes plus the live run's races and
// detector-owned counters.
func liveRun(t testing.TB, m *micro.Micro, cfg config.Config) (raw []byte, races []core.Record, ctr stats.Stats) {
	t.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(m.Name(), nil, cfg))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	d, err := gpu.New(cfg)
	if err != nil {
		t.Fatalf("gpu.New: %v", err)
	}
	d.SetOpSink(tw)
	if err := m.Run(d, nil); err != nil {
		t.Fatalf("live run: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	return buf.Bytes(), d.Races(), replay.DetectorCounters(d.Stats())
}

// replayScoRD replays a recorded trace through the real detector under
// the trace's own configuration.
func replayScoRD(t *testing.T, raw []byte) *replay.Result {
	t.Helper()
	tr, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	sc, err := replay.NewScoRD(tr.Header().Config)
	if err != nil {
		t.Fatalf("NewScoRD: %v", err)
	}
	res, err := replay.Run(tr, sc)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return res
}

// TestLiveVsReplayEveryMicro is the equivalence contract of the whole
// subsystem: for every ScoR microbenchmark, under both the base (full
// 4-byte metadata) and ScoRD (software-cached) designs, replaying the
// recorded trace through the detector yields the same race set and the
// same detector counters as the live simulated run, bit for bit.
func TestLiveVsReplayEveryMicro(t *testing.T) {
	for _, mode := range []config.DetectorMode{config.ModeFull4B, config.ModeCached} {
		for _, m := range micro.All() {
			m := m
			t.Run(mode.String()+"/"+m.Name(), func(t *testing.T) {
				t.Parallel()
				cfg := config.Default().WithDetector(mode)
				raw, liveRaces, liveCtr := liveRun(t, m, cfg)
				res := replayScoRD(t, raw)
				if !reflect.DeepEqual(res.Races, liveRaces) {
					t.Errorf("race sets differ:\nlive:   %v\nreplay: %v", liveRaces, res.Races)
				}
				if res.Counters != liveCtr {
					t.Errorf("detector counters differ:\nlive:   %+v\nreplay: %+v", liveCtr, res.Counters)
				}
			})
		}
	}
}

// TestLiveVsReplayExtensionMicros covers the Section VI extension micros
// (ITS, explicit acquire/release), whose detector configs exercise the
// divergence and release-ordering paths of the recording hook.
func TestLiveVsReplayExtensionMicros(t *testing.T) {
	for _, m := range micro.Extensions() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := config.Default().WithDetector(config.ModeFull4B)
			cfg.Detector.ITS = m.NeedsITS()
			cfg.Detector.AcqRel = m.NeedsAcqRel()
			raw, liveRaces, liveCtr := liveRun(t, m, cfg)
			res := replayScoRD(t, raw)
			if !reflect.DeepEqual(res.Races, liveRaces) {
				t.Errorf("race sets differ:\nlive:   %v\nreplay: %v", liveRaces, res.Races)
			}
			if res.Counters != liveCtr {
				t.Errorf("detector counters differ:\nlive:   %+v\nreplay: %+v", liveCtr, res.Counters)
			}
		})
	}
}

// tee forwards a device's op stream to two sinks, so one simulation can
// both record its trace and drive live models.
type tee [2]gpu.OpSink

func (t tee) KernelStart(name string, blocks, threads int, cycle uint64) {
	t[0].KernelStart(name, blocks, threads, cycle)
	t[1].KernelStart(name, blocks, threads, cycle)
}

func (t tee) KernelEnd(name string, cycle uint64) {
	t[0].KernelEnd(name, cycle)
	t[1].KernelEnd(name, cycle)
}

func (t tee) Alloc(name string, base, size uint64) {
	t[0].Alloc(name, base, size)
	t[1].Alloc(name, base, size)
}

func (t tee) Access(a core.Access, aop core.AtomicOp, size uint32) {
	t[0].Access(a, aop, size)
	t[1].Access(a, aop, size)
}

func (t tee) Fence(block, warp int, scope core.Scope, cycle uint64, fromBarrier bool) {
	t[0].Fence(block, warp, scope, cycle, fromBarrier)
	t[1].Fence(block, warp, scope, cycle, fromBarrier)
}

func (t tee) Barrier(block int, id uint8, warps int, cycle uint64) {
	t[0].Barrier(block, id, warps, cycle)
	t[1].Barrier(block, id, warps, cycle)
}

// comparisonModels builds fresh instances of the four Table VIII
// comparison models (every replay target but ScoRD) under cfg.
func comparisonModels(t testing.TB, cfg config.Config) replay.Sink {
	t.Helper()
	var models replay.Sink
	for _, name := range replay.TargetNames() {
		if name == "scord" {
			continue
		}
		m, err := replay.TargetByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// microConfig is the Table VIII configuration of one micro: full 4-byte
// metadata, plus the ITS or acquire/release extension it needs.
func microConfig(m *micro.Micro) config.Config {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	cfg.Detector.ITS = m.NeedsITS()
	cfg.Detector.AcqRel = m.NeedsAcqRel()
	return cfg
}

// TestLiveVsReplayCheckers verifies the comparison models (Table VIII)
// reproduce their live verdicts from a trace, on every micro and every
// extension micro: a live device records its trace while the models ride
// its op stream through replay.Sink, then fresh model instances replay
// the same trace and must accumulate identical records.
func TestLiveVsReplayCheckers(t *testing.T) {
	for _, m := range append(micro.All(), micro.Extensions()...) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := microConfig(m)
			var buf bytes.Buffer
			tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(m.Name(), nil, cfg))
			if err != nil {
				t.Fatal(err)
			}
			d, err := gpu.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			liveModels := comparisonModels(t, cfg)
			d.SetOpSink(tee{tw, liveModels})
			if err := m.Run(d, nil); err != nil {
				t.Fatalf("live run: %v", err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}

			tr, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			ops, err := replay.ReadAll(tr)
			if err != nil {
				t.Fatal(err)
			}
			for i, mod := range comparisonModels(t, tr.Header().Config) {
				res, err := replay.RunOps(tr.Header(), ops, mod)
				if err != nil {
					t.Fatalf("%s: %v", mod.Name(), err)
				}
				if !reflect.DeepEqual(res.Races, liveModels[i].Records()) {
					t.Errorf("%s records differ:\nlive:   %v\nreplay: %v",
						mod.Name(), liveModels[i].Records(), res.Races)
				}
			}
		})
	}
}

// observedRun is what a run reports that an observer could perturb.
type observedRun struct {
	Stats  stats.Stats
	Cycles uint64
	Races  []core.Record
	SMs    []gpu.SMCounters
	Phases gpu.PhaseAccounts
}

// TestObserversDoNotPerturb runs each application and a few micros twice,
// once bare and once with every observer attached: a trace writer and the
// comparison models on the op stream, and a telemetry gauge as the probe.
// The observed run must report exactly what the bare run does, and the
// gauge must read its final cycle. Replaying a recording in place of a
// live run (TestTable8ReplayMatchesLive) rests on this.
func TestObserversDoNotPerturb(t *testing.T) {
	type job struct {
		name string
		run  func(*gpu.Device) error
	}
	var jobs []job
	for i, b := range scor.Apps() {
		i := i
		jobs = append(jobs, job{b.Name(), func(d *gpu.Device) error { return scor.Apps()[i].Run(d, nil) }})
	}
	few := map[string]bool{"fence.ok.same-barrier": true, "fence.racey.cross-none": true,
		"lock.racey.none-cross": true, "atom.racey.block-cross": true}
	for _, m := range micro.All() {
		m := m
		if few[m.Name()] {
			jobs = append(jobs, job{m.Name(), func(d *gpu.Device) error { return m.Run(d, nil) }})
		}
	}
	cfg := config.Default().WithDetector(config.ModeCached)
	run := func(t *testing.T, j job, observe func(*gpu.Device)) observedRun {
		d, err := gpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		observe(d)
		if err := j.run(d); err != nil {
			t.Fatal(err)
		}
		return observedRun{*d.Stats(), d.Cycles(), d.Races(), d.SMCountersSnapshot(), d.Phases()}
	}
	for _, j := range jobs {
		j := j
		t.Run(j.name, func(t *testing.T) {
			t.Parallel()
			bare := run(t, j, func(*gpu.Device) {})
			var gauge obs.JobProgress
			observed := run(t, j, func(d *gpu.Device) {
				tw, err := tracefile.NewWriter(io.Discard, tracefile.NewHeader(j.name, nil, cfg))
				if err != nil {
					t.Fatal(err)
				}
				d.SetOpSink(tee{tw, comparisonModels(t, cfg)})
				d.SetProbe(&gauge)
			})
			if !reflect.DeepEqual(observed, bare) {
				t.Errorf("observers changed the run:\nbare:     %+v\nobserved: %+v", bare, observed)
			}
			if got := gauge.Cycles.Load(); got != bare.Cycles {
				t.Errorf("gauge reads cycle %d, run ended at %d", got, bare.Cycles)
			}
		})
	}
}

// TestReplayReconstructsAllocations checks that race addresses resolve to
// the same allocation names as on the live device.
func TestReplayReconstructsAllocations(t *testing.T) {
	var racey *micro.Micro
	for _, m := range micro.All() {
		if m.Racey() {
			racey = m
			break
		}
	}
	cfg := config.Default().WithDetector(config.ModeFull4B)
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(racey.Name(), nil, cfg))
	if err != nil {
		t.Fatal(err)
	}
	d, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetOpSink(tw)
	if err := racey.Run(d, nil); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	res := replayScoRD(t, buf.Bytes())
	if len(res.Races) == 0 {
		t.Fatalf("expected races from %s", racey.Name())
	}
	for i, rec := range res.Races {
		want := d.DescribeRecord(d.Races()[i])
		got := res.DescribeRecord(rec)
		if got != want {
			t.Errorf("record %d description differs:\nlive:   %s\nreplay: %s", i, want, got)
		}
	}
}

// TestLiveVsReplayScaledArena records a micro on a 32 MB device (the
// arena of a -scale 16 run) with its buffers placed above 18 MB and
// replays it under all five targets. Every model's metadata must cover
// the trace's whole arena, and each reproduces its live verdict.
func TestLiveVsReplayScaledArena(t *testing.T) {
	const pad = 18 << 20
	var m *micro.Micro
	for _, c := range micro.All() {
		if c.Name() == "lock.racey.none-cross" {
			m = c
		}
	}
	cfg := config.Default().WithDetector(config.ModeFull4B)
	cfg.DeviceMemBytes *= 16
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(m.Name(), nil, cfg))
	if err != nil {
		t.Fatal(err)
	}
	d, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models := comparisonModels(t, cfg)
	d.SetOpSink(tee{tw, models})
	d.Alloc("pad", pad/4)
	live := map[string][]core.Record{}
	if err := m.Run(d, nil); err != nil {
		t.Fatalf("live run: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mod := range models {
		live[mod.Name()] = mod.Records()
	}
	live["ScoRD"] = d.Races()

	tr, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range replay.TargetNames() {
		tgt, err := replay.TargetByName(name, tr.Header().Config)
		if err != nil {
			t.Fatal(err)
		}
		res, err := replay.RunOps(tr.Header(), ops, tgt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(res.Races, live[res.Detector]) {
			t.Errorf("%s records differ:\nlive:   %v\nreplay: %v", res.Detector, live[res.Detector], res.Races)
		}
		if name != "ldetector" && len(res.Races) == 0 {
			t.Errorf("%s found no race in %s", res.Detector, m.Name())
		}
		for _, rec := range res.Races {
			if rec.Addr < pad {
				t.Errorf("%s race at %#x, below the %#x pad", res.Detector, rec.Addr, pad)
			}
		}
	}
}

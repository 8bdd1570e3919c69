package replay_test

import (
	"bytes"
	"reflect"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/detectors"
	"scord/internal/gpu"
	"scord/internal/replay"
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

// TestLiveVsReplayCheckers verifies the comparison models (Table VIII)
// reproduce their live verdicts from a trace: a live device runs with
// the checkers attached while recording, then fresh checker instances
// replay the same trace and must accumulate identical records.
func TestLiveVsReplayCheckers(t *testing.T) {
	for _, m := range micro.All()[:8] {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			cfg := config.Default().WithDetector(config.ModeFull4B)
			var buf bytes.Buffer
			tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(m.Name(), nil, cfg))
			if err != nil {
				t.Fatal(err)
			}
			d, err := gpu.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.SetOpSink(tw)
			liveModels := detectors.All(d.Mem().Words())
			for _, mod := range liveModels {
				d.AddChecker(mod)
			}
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
			for i, mod := range detectors.All(d.Mem().Words()) {
				res, err := replay.RunOps(tr.Header(), ops, replay.NewChecker(mod))
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
	d.SetOpSink(tw)
	d.Alloc("pad", pad/4)
	live := map[string][]core.Record{}
	models := detectors.All(d.Mem().Words())
	for _, mod := range models {
		d.AddChecker(mod)
	}
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

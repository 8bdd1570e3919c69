package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// This file is the harness's record-once-replay-many path. A live
// simulation records the scoped memory-op stream once (RecordBenchmark /
// RecordMicros, on the same bounded worker pool as every other
// experiment), then detector-side experiments replay the corpus through
// any model without re-simulating timing (RunTable8Replay). The replayed
// race sets and detector counters are bit-identical to the live run's,
// so a replayed table must render byte-identically to its live twin.

// TraceExt is the trace-file extension the harness writes and expects.
const TraceExt = ".sctr"

// RecordBenchmark runs one benchmark live under the given detector mode
// with a trace recorder attached, streaming the memory-op trace to w.
// The trace header carries the benchmark name, active injections and the
// exact device configuration used.
func RecordBenchmark(opt Options, cfg config.Config, label string, b scor.Benchmark, mode config.DetectorMode, active []string, w io.Writer) error {
	c := cfg.WithDetector(mode)
	d, err := gpu.New(c)
	if err != nil {
		return err
	}
	tw, err := tracefile.NewWriter(w, tracefile.NewHeader(b.Name(), active, c))
	if err != nil {
		return err
	}
	d.SetOpSink(tw)
	flush := opt.observe(d, label)
	defer flush()
	if err := b.Run(d, active); err != nil {
		return fmt.Errorf("%s [%v/%v]: %w", b.Name(), mode, active, err)
	}
	return tw.Close()
}

// MicroTracePath returns the canonical corpus path for one micro.
func MicroTracePath(dir, name string) string { return filepath.Join(dir, name+TraceExt) }

// RecordMicros records every microbenchmark (no injections, full-4B
// detection — the Table VIII configuration) into dir, one trace file per
// micro, across the worker pool. The files are byte-identical at any
// Jobs value: each recording is an independent single-threaded
// simulation, and parallelism exists only across files.
func RecordMicros(opt Options, dir string) error {
	cfg := opt.cfg()
	micros := micro.All()
	var sims []Sim
	for mi := range micros {
		mi := mi
		name := micros[mi].Name()
		label := "record/" + name
		path := MicroTracePath(dir, name)
		sims = append(sims, Sim{
			Label: label,
			Run: func() error {
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := RecordBenchmark(opt, cfg, label, micro.All()[mi], config.ModeFull4B, nil, f); err != nil {
					f.Close()
					os.Remove(path)
					return err
				}
				return f.Close()
			},
		})
	}
	return runAll(opt, sims)
}

// replayTargets builds one fresh instance of every Table VIII model as a
// replay target, each under the trace's recorded configuration: the four
// comparison checkers plus real ScoRD.
func replayTargets(h tracefile.Header) ([]replay.Target, error) {
	var targets []replay.Target
	for _, name := range replay.TargetNames() {
		t, err := replay.TargetByName(name, h.Config)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	return targets, nil
}

// RunTable8Replay regenerates the Table VIII capability matrix from a
// recorded micro corpus (RecordMicros) instead of live simulation: each
// micro's trace is decoded once and replayed through all five detector
// models. The resulting table is byte-identical to RunTable8's.
func RunTable8Replay(opt Options, dir string) (*Table8, error) {
	micros := micro.All()
	verdicts := make([]map[string]t8verdict, len(micros))
	var sims []Sim
	for mi := range micros {
		mi := mi
		name := micros[mi].Name()
		label := "table8-replay/" + name
		sims = append(sims, Sim{
			Label: label,
			Run: func() error {
				m := micro.All()[mi]
				f, err := os.Open(MicroTracePath(dir, name))
				if err != nil {
					return err
				}
				defer f.Close()
				tr, err := tracefile.NewReader(f)
				if err != nil {
					return err
				}
				ops, err := replay.ReadAll(tr)
				if err != nil {
					return err
				}
				targets, err := replayTargets(tr.Header())
				if err != nil {
					return err
				}
				specs := m.ExpectedRaces(nil)
				v := make(map[string]t8verdict, len(targets))
				for _, t := range targets {
					res, err := replay.RunOps(tr.Header(), ops, t)
					if err != nil {
						return err
					}
					v[t.Name()] = scoreRecords(res.Mem, res.Races, specs)
				}
				verdicts[mi] = v
				return nil
			},
		})
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}
	return assembleTable8(micros, verdicts), nil
}

// RunTable8RecordReplay is the end-to-end record-once-replay-many
// pipeline: record the micro corpus into dir (a temporary directory when
// empty, removed afterwards), then replay it into the capability matrix.
func RunTable8RecordReplay(opt Options, dir string) (*Table8, error) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "scord-traces-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := RecordMicros(opt, dir); err != nil {
		return nil, err
	}
	return RunTable8Replay(opt, dir)
}

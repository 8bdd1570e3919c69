package harness

import (
	"bytes"
	"fmt"

	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// This file defines the suite corpus that the explore, repair and
// predict suites share: one ordered list of configurations and one
// function that records a configuration live. A suite runs one job per
// configuration on the worker pool; each job records its own trace,
// analyses it and drops it, so a suite holds at most Jobs traces at once.

// configKind says which part of the corpus a configuration belongs to.
type configKind uint8

const (
	appClean    configKind = iota // an application, no injection
	appInjected                   // an application with one injection
	baseMicro                     // one of the 32 Table I micros
	extMicro                      // a Section VI extension micro
	maskedEx                      // the synthetic masked-race example
)

// suiteConfig is one configuration of the suite corpus.
type suiteConfig struct {
	kind  configKind
	bench string
	inj   string // the one active injection; "" for a clean run
	// racey marks configurations whose recorded schedule should race:
	// app injections and racey micros.
	racey bool
	class string // a racey micro's Table VIII race class
	// its and acqrel enable the detector extension an extension micro
	// needs.
	its, acqrel bool
	// build returns a fresh benchmark instance; nil for the masked
	// example, which is built as a trace.
	build func() scor.Benchmark
}

// label names the configuration in job labels: the benchmark, and its
// injection if any.
func (c suiteConfig) label() string {
	if c.inj == "" {
		return c.bench
	}
	return c.bench + "/" + c.inj
}

// suiteCorpus returns the 71 recorded configurations in order: each app
// clean and then with each of its injections, the 32 micros, and the 6
// extension micros with the extension each needs.
func suiteCorpus() []suiteConfig {
	var out []suiteConfig
	for ai, b := range scor.Apps() {
		build := func() scor.Benchmark { return scor.Apps()[ai] }
		out = append(out, suiteConfig{kind: appClean, bench: b.Name(), build: build})
		for _, inj := range b.Injections() {
			out = append(out, suiteConfig{kind: appInjected, bench: b.Name(), inj: inj, racey: true, build: build})
		}
	}
	for mi, m := range micro.All() {
		c := suiteConfig{kind: baseMicro, bench: m.Name(), racey: m.Racey(),
			build: func() scor.Benchmark { return micro.All()[mi] }}
		if m.Racey() {
			c.class = m.Class()
		}
		out = append(out, c)
	}
	for mi, m := range micro.Extensions() {
		out = append(out, suiteConfig{kind: extMicro, bench: m.Name(), racey: m.Racey(),
			its: m.NeedsITS(), acqrel: m.NeedsAcqRel(),
			build: func() scor.Benchmark { return micro.Extensions()[mi] }})
	}
	return out
}

// injectedAndMicros is the repair corpus, and the explore corpus
// without the masked example: every app injection and the 32 micros.
func injectedAndMicros() []suiteConfig {
	var out []suiteConfig
	for _, c := range suiteCorpus() {
		if c.kind == appInjected || c.kind == baseMicro {
			out = append(out, c)
		}
	}
	return out
}

// maskedConfig is the synthetic masked-race example the explore suite
// adds to the repair corpus.
func maskedConfig() suiteConfig {
	return suiteConfig{kind: maskedEx, bench: "explore.masked"}
}

// record runs the configuration live on a fresh benchmark instance under
// ModeFull4B, with a trace writer attached. It returns the header, the
// decoded ops and the (alloc, kind) tuples the live detector observed.
func (c suiteConfig) record() (tracefile.Header, []tracefile.Op, map[predict.Tuple]bool, error) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	cfg.Detector.ITS, cfg.Detector.AcqRel = c.its, c.acqrel
	var active []string
	if c.inj != "" {
		active = []string{c.inj}
	}
	d, err := gpu.New(cfg)
	if err != nil {
		return tracefile.Header{}, nil, nil, err
	}
	b := c.build()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(b.Name(), active, cfg))
	if err != nil {
		return tracefile.Header{}, nil, nil, err
	}
	d.SetOpSink(tw)
	if err := b.Run(d, active); err != nil {
		return tracefile.Header{}, nil, nil, fmt.Errorf("%s (injections %v): %w", b.Name(), active, err)
	}
	if err := tw.Close(); err != nil {
		return tracefile.Header{}, nil, nil, err
	}
	tr, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return tracefile.Header{}, nil, nil, err
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		return tracefile.Header{}, nil, nil, err
	}
	return tr.Header(), ops, predict.TuplesOf(d.Races(), d.Mem()), nil
}

// runConfigs runs job on every configuration on the worker pool, one job
// labelled prefix/<config> each, and returns the results in
// configuration order, so they are identical at any Jobs value.
func runConfigs[R any](opt Options, prefix string, configs []suiteConfig, job func(suiteConfig) (R, error)) ([]R, error) {
	out := make([]R, len(configs))
	sims := make([]Sim, len(configs))
	for i, c := range configs {
		sims[i] = Sim{
			Label: prefix + "/" + c.label(),
			Run: func() error {
				r, err := job(c)
				if err != nil {
					return err
				}
				out[i] = r
				return nil
			},
		}
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}
	return out, nil
}

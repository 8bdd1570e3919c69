package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// layerPrefixes maps each workload to the per-layer metric prefixes its
// traced run measures; the other per-layer metrics read 0 there. Every
// traced run measures tracing.overhead.
var layerPrefixes = map[string][]string{
	"sim":   {"gpu.", "cache.", "noc.", "dram.", "core.", "phase."},
	"trace": {"tracefile.", "replay.", "predict.", "explore."},
	"serve": {"serve."},
}

// measured reports whether a workload's traced run measures a per-layer
// metric.
func measured(workload, name string) bool {
	if name == "tracing.overhead" {
		return true
	}
	for _, p := range layerPrefixes[workload] {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func smoke(t *testing.T, workload string, traced bool, tamper func(*expect)) *result {
	t.Helper()
	res, err := run(params{workload: workload, seed: 1, seconds: 0.1, trace: traced,
		outDir: t.TempDir(), smoke: true, tamper: tamper})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPerLayerUnitsMatchBenchmarkJSON checks that the benchmark's table
// of per-layer metrics names exactly BENCHMARK.json's, with its units.
func TestPerLayerUnitsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	table := perLayerUnits()
	for _, m := range b.PerLayer {
		if unit, ok := table[m.Name]; !ok || unit != m.Unit {
			t.Errorf("BENCHMARK.json has %s in %q; the benchmark's table has %q (listed: %v)", m.Name, m.Unit, unit, ok)
		}
	}
	if len(table) != len(b.PerLayer) {
		t.Errorf("the benchmark's table has %d per-layer metrics, BENCHMARK.json %d", len(table), len(b.PerLayer))
	}
}

// TestSmokeEmitsEveryMetric runs every workload at minimal size, untraced
// and traced, and checks that it passes its output checks and emits
// every end-to-end metric, or every per-layer metric, with the units
// BENCHMARK.json declares. Untraced, every metric is positive; traced,
// the metrics of layers the workload does not call read 0.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			res := smoke(t, w.Name, traced, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v emits %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v does not emit %s", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v", w.Name, m.Name, got.Value)
				case traced && !measured(w.Name, m.Name) && got.Value != 0:
					t.Errorf("%s does not call the layer of %s, yet it reads %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestWrongExpectationFails proves the output checks bite: a wrong
// Figure 8 bar and a flipped byte in the serve reference bodies must
// each count failed operations and make the run exit non-zero.
func TestWrongExpectationFails(t *testing.T) {
	cases := map[string]func(*expect){
		"sim": func(ex *expect) { ex.fig8["MM"] = [2]float64{1.244, 1.245} },
		"serve": func(ex *expect) {
			for _, body := range ex.serveBodies {
				body[len(body)/2] ^= 1
			}
		},
	}
	for workload, tamper := range cases {
		res := smoke(t, workload, false, tamper)
		if res.Failed == 0 || res.Correct || exitCode(res) == 0 {
			t.Errorf("%s with a wrong expectation: correct=%v failed=%d exit=%d", workload, res.Correct, res.Failed, exitCode(res))
		}
	}
}

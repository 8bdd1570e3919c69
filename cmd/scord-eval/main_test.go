package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Regression: an unknown -only value must be rejected up front with exit
// code 2, before any simulation runs (a typo used to cost a full
// evaluation pass of every experiment first).
func TestUnknownOnlyRejectedBeforeRunning(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-only", "fig99"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty: %q — experiments ran before the rejection", out.String())
	}
	if !strings.Contains(errOut.String(), `unknown experiment "fig99"`) {
		t.Fatalf("stderr %q missing unknown-experiment diagnostic", errOut.String())
	}
	if !strings.Contains(errOut.String(), "fig8") {
		t.Fatalf("stderr %q does not list the valid experiment names", errOut.String())
	}
}

func TestBadJobsRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-jobs", "0", "-only", "fig8"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-jobs must be >= 1") {
		t.Fatalf("stderr %q missing -jobs diagnostic", errOut.String())
	}
}

func TestVerboseQuietConflictRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-v", "-quiet", "-only", "table8"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "mutually exclusive") {
		t.Fatalf("stderr %q missing conflict diagnostic", errOut.String())
	}
}

func httpGet(t *testing.T, url string) (string, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// TestObsServesWhileRunInFlight: with -obs-addr, the telemetry endpoint
// answers Prometheus scrapes and pprof requests while simulations are
// still executing. A poller started from the obsServerStarted hook
// scrapes /metrics until it observes queued jobs, then hits /debug/vars
// and /debug/pprof/cmdline. The obsServerClosing hook holds the server
// open until the poller is done, so a poller the scheduler starts late
// still finds it listening rather than torn down by run()'s return.
func TestObsServesWhileRunInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table8 micro suite")
	}
	type scrape struct {
		metrics string
		vars    string
		pprof   string
		err     error
	}
	got := make(chan scrape, 1)
	scraped := make(chan struct{})
	obsServerStarted = func(addr string) {
		go func() {
			defer close(scraped)
			var s scrape
			base := "http://" + addr
			jobsSeen := regexp.MustCompile(`(?m)^scord_jobs_total [1-9]`)
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				body, err := httpGet(t, base+"/metrics")
				if err != nil {
					s.err = err
					break
				}
				if jobsSeen.MatchString(body) {
					s.metrics = body
					s.vars, s.err = httpGet(t, base+"/debug/vars")
					if s.err == nil {
						s.pprof, s.err = httpGet(t, base+"/debug/pprof/cmdline")
					}
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			got <- s
		}()
	}
	obsServerClosing = func() { <-scraped }
	defer func() { obsServerStarted, obsServerClosing = nil, nil }()

	var out, errOut strings.Builder
	code := run([]string{"-only", "table8", "-jobs", "2", "-obs-addr", "127.0.0.1:0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, errOut.String())
	}
	s := <-got
	if s.err != nil {
		t.Fatalf("scraping mid-run: %v", s.err)
	}
	if s.metrics == "" {
		t.Fatal("poller never observed queued jobs on /metrics while the run was in flight")
	}
	for _, want := range []string{"scord_workers 2", "scord_jobs_running", "scord_job_sim_cycles", `scord_job_state{job="table8/`} {
		if !strings.Contains(s.metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, s.metrics)
		}
	}
	if !strings.Contains(s.vars, `"scord"`) {
		t.Errorf("/debug/vars missing scord expvar: %s", s.vars)
	}
	if s.pprof == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
	if !strings.Contains(errOut.String(), "telemetry server listening") {
		t.Errorf("stderr missing server startup log:\n%s", errOut.String())
	}
}

// TestMetricsAndProfilesWritten: one -quiet run produces the sampled
// metrics CSV/JSON artifacts and the CPU/heap profiles, while keeping
// stderr free of info-level telemetry.
func TestMetricsAndProfilesWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table8 micro suite")
	}
	dir := t.TempDir()
	metricsDir := filepath.Join(dir, "metrics")
	cpuProf := filepath.Join(dir, "cpu.pprof")
	memProf := filepath.Join(dir, "mem.pprof")
	var out, errOut strings.Builder
	code := run([]string{
		"-only", "table8", "-jobs", "2", "-quiet",
		"-metrics", metricsDir, "-sample-every", "500",
		"-cpuprofile", cpuProf, "-memprofile", memProf,
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, errOut.String())
	}
	if strings.Contains(errOut.String(), "experiment complete") {
		t.Errorf("-quiet run still logged info-level telemetry:\n%s", errOut.String())
	}

	csv, err := os.ReadFile(filepath.Join(metricsDir, "metrics.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "label,cycle,metric,value\n") {
		t.Errorf("metrics.csv header wrong: %q", string(csv[:min(len(csv), 60)]))
	}
	for _, want := range []string{"table8/", ",instructions,", ",sm0.instructions,", ",dram0.accesses,"} {
		if !strings.Contains(string(csv), want) {
			t.Errorf("metrics.csv missing %q", want)
		}
	}
	js, err := os.ReadFile(filepath.Join(metricsDir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []struct {
			Label   string `json:"label"`
			Samples []struct {
				Cycle  uint64  `json:"cycle"`
				Metric string  `json:"metric"`
				Value  float64 `json:"value"`
			} `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	if len(doc.Series) == 0 || len(doc.Series[0].Samples) == 0 {
		t.Fatal("metrics.json has no sampled series")
	}

	for _, p := range []string{cpuProf, memProf} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

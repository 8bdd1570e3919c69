package detlint_test

import (
	"testing"

	"scord/internal/analysis/analysistest"
	"scord/internal/analysis/detlint"
)

// TestDetlint runs the golden suites: one testdata package per violation
// class, plus the clean negative case.
func TestDetlint(t *testing.T) {
	analysistest.Run(t, detlint.Analyzer,
		"walltime", "globalrand", "maporder", "goroutine", "detclean")
}

// TestMatch pins the deterministic-core package set the driver applies
// detlint to.
func TestMatch(t *testing.T) {
	for _, pkg := range []string{
		"scord/internal/engine", "scord/internal/gpu", "scord/internal/harness",
		"scord/internal/stats", "scord/internal/core",
	} {
		if !detlint.Analyzer.Match(pkg) {
			t.Errorf("Match(%q) = false, want true", pkg)
		}
	}
	for _, pkg := range []string{"scord/internal/scor", "scord", "scord/cmd/scord-eval"} {
		if detlint.Analyzer.Match(pkg) {
			t.Errorf("Match(%q) = true, want false", pkg)
		}
	}
}

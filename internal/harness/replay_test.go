package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTable8ReplayMatchesLive is the harness-level equivalence gate: the
// capability matrix regenerated from a recorded trace corpus must render
// byte-identically to the live-simulation matrix. Valid because the
// models only observe the op stream and never influence timing
// (TestObserversDoNotPerturb in internal/replay) — a model-free
// recording carries the exact op stream the live models observed.
func TestTable8ReplayMatchesLive(t *testing.T) {
	if raceEnabled {
		t.Skip("runs the full micro corpus twice; suite tests carry the -race coverage")
	}
	live, err := RunTable8(Options{Jobs: 4})
	if err != nil {
		t.Fatalf("RunTable8: %v", err)
	}
	replayed, err := RunTable8RecordReplay(Options{Jobs: 4}, "")
	if err != nil {
		t.Fatalf("RunTable8RecordReplay: %v", err)
	}
	if live.Render() != replayed.Render() {
		t.Errorf("replayed Table VIII differs from live:\nlive:\n%s\nreplay:\n%s",
			live.Render(), replayed.Render())
	}
}

// TestRecordMicrosWritesCorpus checks the corpus layout: one trace per
// micro at the canonical path, and a failed record leaves no file behind.
func TestRecordMicrosWritesCorpus(t *testing.T) {
	if raceEnabled {
		t.Skip("records the whole micro corpus; suite tests carry the -race coverage")
	}
	dir := t.TempDir()
	if err := RecordMicros(Options{Jobs: 2}, dir); err != nil {
		t.Fatalf("RecordMicros: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no trace files written")
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != TraceExt {
			t.Errorf("unexpected file %s in corpus dir", e.Name())
		}
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", e.Name())
		}
	}
}

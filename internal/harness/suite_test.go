package harness

import (
	"testing"

	"scord/internal/scor"
	"scord/internal/scor/micro"
)

// configsNamed picks configurations of the suite corpus, or the masked
// example, by label.
func configsNamed(t *testing.T, labels ...string) []suiteConfig {
	t.Helper()
	byLabel := map[string]suiteConfig{}
	for _, c := range append(suiteCorpus(), maskedConfig()) {
		byLabel[c.label()] = c
	}
	out := make([]suiteConfig, len(labels))
	for i, l := range labels {
		c, ok := byLabel[l]
		if !ok {
			t.Fatalf("no suite configuration %q", l)
		}
		out[i] = c
	}
	return out
}

// TestSuiteCorpus pins the corpus order: each app clean and then with
// each of its injections, the 32 micros, then the 6 extension micros.
func TestSuiteCorpus(t *testing.T) {
	var want []string
	for _, b := range scor.Apps() {
		want = append(want, b.Name())
		for _, inj := range b.Injections() {
			want = append(want, b.Name()+"/"+inj)
		}
	}
	for _, m := range micro.All() {
		want = append(want, m.Name())
	}
	for _, m := range micro.Extensions() {
		want = append(want, m.Name())
	}
	corpus := suiteCorpus()
	if len(corpus) != 71 || len(want) != 71 {
		t.Fatalf("corpus has %d configurations (suite defines %d), want 71", len(corpus), len(want))
	}
	for i, c := range corpus {
		if c.label() != want[i] {
			t.Errorf("configuration %d = %q, want %q", i, c.label(), want[i])
		}
	}
	if n := len(injectedAndMicros()); n != 26+32 {
		t.Errorf("injectedAndMicros has %d configurations, want 58", n)
	}
}

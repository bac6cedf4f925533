package benchsuite

import (
	"strings"
	"testing"

	"spiderfs/internal/regress"
	"spiderfs/internal/sweep"
)

// small trims the standard entries to a handful of replicas so the
// double-run contract is exercised on the real experiment bodies
// without paying full campaign cost in tier-1.
func small(seed uint64) []sweep.Entry {
	entries := SweepEntries(seed)
	for i := range entries {
		entries[i].Replicas = 3
	}
	return entries
}

// TestSweepSuiteDeterministic runs the real E3/E13/E18 replica bodies
// through the suite harness, which itself double-runs each sweep
// serially and in parallel and fails on any divergence. Then the whole
// suite is run twice to check the artifact's fingerprints reproduce.
func TestSweepSuiteDeterministic(t *testing.T) {
	a, err := sweep.RunSuite("sweep", small(7), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep.RunSuite("sweep", small(7), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"e3-slowdisk", "e13-purge", "e18-chaos"} {
		p := "sweep/" + label + "/"
		fa, ok := regress.Find(a, p+"fingerprint")
		fb, _ := regress.Find(b, p+"fingerprint")
		if !ok || fa.Text != fb.Text {
			t.Errorf("%s: fingerprint differs across suite runs: %s vs %s", label, fa.Text, fb.Text)
		}
		if r, _ := regress.Find(a, p+"errors"); r.Value != 0 {
			t.Errorf("%s: %v failed replicas", label, r.Value)
		}
		means := 0
		for _, r := range a {
			if strings.HasPrefix(r.Name, p) && strings.HasSuffix(r.Name, "/mean") {
				means++
			}
		}
		if means == 0 {
			t.Errorf("%s: no merged metrics", label)
		}
	}
}

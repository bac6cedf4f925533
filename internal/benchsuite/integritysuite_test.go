package benchsuite

import (
	"testing"

	"spiderfs/internal/regress"
)

// TestIntegritySuiteDeterministic runs the full E19 suite (the harness
// itself double-runs each sweep serially and in parallel) and checks
// the headline acceptance properties the regression gate pins: zero
// undetected corrupt reads at the default interval, a nonzero exposure
// baseline without scrubbing, and reproducible artifact fingerprints.
func TestIntegritySuiteDeterministic(t *testing.T) {
	a, err := RunIntegritySuite(42, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	val := func(name string) float64 {
		t.Helper()
		r, ok := regress.Find(a, "integrity/"+name)
		if !ok {
			t.Fatalf("no record integrity/%s", name)
		}
		return r.Value
	}
	for _, label := range []string{"e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"} {
		if n := val(label + "/errors"); n != 0 {
			t.Errorf("%s: %v failed replicas", label, n)
		}
	}
	if v := val("undetected_reads_at_default"); v != 0 {
		t.Fatalf("undetected at default interval = %v, want exactly 0", v)
	}
	if v := val("undetected_reads_no_scrub"); v <= 0 {
		t.Fatalf("no-scrub exposure baseline = %v, want positive", v)
	}
	if off, def := val("rebuild_latent_hits_no_scrub"), val("rebuild_latent_hits_at_default"); off <= def {
		t.Fatalf("rebuild latent hits: no-scrub %v not above default %v", off, def)
	}
	if v := val("scrub_overhead_frac"); v <= 0 || v > 0.25 {
		t.Fatalf("scrub overhead = %v, want measurable and under the 0.25 gate ceiling", v)
	}
	b, err := RunIntegritySuite(42, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range a {
		if r.Gate != regress.Exact {
			continue
		}
		if rb, _ := regress.Find(b, r.Name); rb.Text != r.Text || rb.Value != r.Value {
			t.Errorf("%s differs across suite runs: %+v vs %+v", r.Name, r, rb)
		}
	}
	if _, err := regress.Encode(a); err != nil {
		t.Fatal(err)
	}
}

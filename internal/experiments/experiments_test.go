package experiments

import (
	"testing"

	"spiderfs/internal/regress"
)

func TestRegistryIDsUniqueAndClaimed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || len(e.Claims) == 0 || e.Title == "" || e.Section == "" {
			t.Errorf("%s: incomplete row %+v", e.ID, e)
		}
	}
	if e, ok := Lookup("hero"); !ok || e.ID != "HERO" {
		t.Errorf("Lookup(hero) = %v, %v", e.ID, ok)
	}
	if _, ok := Lookup("E18"); ok {
		t.Error("E18 is not a registry row")
	}
}

func TestCheckNamesRowAndMetric(t *testing.T) {
	e, _ := Lookup("E8")
	res := Result{Metrics: []regress.Record{
		metric("recovery_pct", "%", 50),
		metric("journal_lost", "entries", 1e6),
		metric("spider1_groups_failed", "groups", 1),
	}}
	findings, err := e.Check(res)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"recovery_pct": "band", "spider2_groups_failed": "missing"}
	if len(findings) != len(want) {
		t.Fatalf("findings = %v, want %v", findings, want)
	}
	for _, f := range findings {
		if f.Artifact != "E8" || want[f.Record] != f.Check {
			t.Errorf("finding %v, want row E8 and one of %v", f, want)
		}
	}
}

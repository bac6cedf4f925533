package benchsuite

import (
	"encoding/json"
	"fmt"
	"testing"

	"spiderfs/internal/regress"
)

// TestLedgerSuiteDeterministic pins the artifact's own determinism:
// two runs under a nil clock must agree on every record (the
// wall-derived throughput numbers are zeroed).
func TestLedgerSuiteDeterministic(t *testing.T) {
	run := func() []regress.Record {
		s, err := RunLedgerSuite(7, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("ledger suite double run diverged:\n%s\nvs\n%s", aj, bj)
	}
}

func TestLedgerSuiteProperties(t *testing.T) {
	tick := int64(0)
	recs, err := RunLedgerSuite(7, func() int64 { tick += 1e6; return tick })
	if err != nil {
		t.Fatal(err)
	}
	val := func(name string) float64 {
		t.Helper()
		r, ok := regress.Find(recs, "ledger/"+name)
		if !ok {
			t.Fatalf("no record ledger/%s", name)
		}
		return r.Value
	}
	for _, name := range []string{"deterministic", "traced_identical", "audit_clean"} {
		if val(name) != 1 {
			t.Fatalf("%s = %v, want 1", name, val(name))
		}
	}
	if val("entries") == 0 || val("anchors") == 0 || val("drops") != 0 {
		t.Fatalf("campaign ledger %v/%v/%v", val("entries"), val("anchors"), val("drops"))
	}
	if val("roots") != val("anchors") {
		t.Fatalf("%v roots for %v anchors", val("roots"), val("anchors"))
	}
	if _, ok := regress.Find(recs, fmt.Sprintf("ledger/root/%03d", int(val("roots"))-1)); !ok {
		t.Fatal("last root record missing")
	}
	if val("tampers") != 5 || val("tampers/undetected") != 0 {
		t.Fatalf("tampers %v, undetected %v, want 5/0", val("tampers"), val("tampers/undetected"))
	}
	for _, name := range []string{"entry-mutation", "entry-deletion", "chain-truncation", "batch-reorder", "forged-suffix"} {
		if val("tamper/"+name+"/detected") != 1 || val("tamper/"+name+"/epoch") < 0 {
			t.Fatalf("tamper %s detected without an offending epoch", name)
		}
	}
	prev := 0.0
	for _, maxBatch := range []int{64, 256, 1024, 4096} {
		p := fmt.Sprintf("batch/%d/", maxBatch)
		if n := val(p + "entries"); n != batchSweepEntries {
			t.Fatalf("batch %d appended %v entries", maxBatch, n)
		}
		// Smaller batches seal more anchors; the sweep must be strictly
		// ordered or the MaxBatch knob is not doing anything.
		anchors := val(p + "anchors")
		if prev != 0 && anchors >= prev {
			t.Fatalf("anchors not decreasing with batch size: %v after %v", anchors, prev)
		}
		prev = anchors
		if val(p+"append_ns") <= 0 || val(p+"entries_per_sec") <= 0 {
			t.Fatalf("batch %d recorded no throughput under a ticking clock", maxBatch)
		}
	}
}

package regress

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// artifacts are the committed BENCH_*.json files at the repository root.
var artifacts = []string{
	"BENCH_netsim.json", "BENCH_spantrace.json", "BENCH_sweep.json",
	"BENCH_integrity.json", "BENCH_serve.json", "BENCH_ledger.json",
}

func load(t *testing.T, file string) []Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if a.Schema != Schema || len(a.Records) == 0 {
		t.Fatalf("%s: schema %q with %d records", file, a.Schema, len(a.Records))
	}
	return a.Records
}

func encode(t *testing.T, recs []Record) []byte {
	t.Helper()
	data, err := Encode(recs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func compare(t *testing.T, file string, committed, fresh []Record) []Finding {
	t.Helper()
	out, err := Compare(file, encode(t, committed), encode(t, fresh))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// edit returns a copy of recs with fn applied to the record named key,
// or to every record under key when it ends in a slash; fn returning
// false deletes the record.
func edit(recs []Record, key string, fn func(r *Record) bool) []Record {
	var out []Record
	for _, r := range recs {
		match := r.Name == key || strings.HasSuffix(key, "/") && strings.HasPrefix(r.Name, key)
		if match && !fn(&r) {
			continue
		}
		out = append(out, r)
	}
	return out
}

func set(v float64) func(r *Record) bool {
	return func(r *Record) bool { r.Value = v; return true }
}

func setText(s string) func(r *Record) bool {
	return func(r *Record) bool { r.Text = s; return true }
}

func drop(*Record) bool { return false }

// wantFindings fails unless findings name exactly the given records.
func wantFindings(t *testing.T, what string, findings []Finding, names ...string) {
	t.Helper()
	got := make([]string, len(findings))
	for i, f := range findings {
		got[i] = f.Record
	}
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("%s: findings %v, want records %v", what, findings, names)
	}
}

func wantPolicy(t *testing.T, recs []Record, name string, gate Gate, bound float64) Record {
	t.Helper()
	r, ok := Find(recs, name)
	if !ok {
		t.Fatalf("no record %s", name)
	}
	if r.Gate != gate || r.Bound != bound {
		t.Errorf("%s: gate %s bound %v, want %s %v", name, r.Gate, r.Bound, gate, bound)
	}
	return r
}

// TestIdenticalArtifactsPass checks every committed artifact against
// itself, and that no wall-clock figure in it is gated. The one
// exception is the netsim start/finish speedup: the ordered path must
// beat the map baseline outright, with a several-fold margin to spare.
func TestIdenticalArtifactsPass(t *testing.T) {
	wall := []string{"_ns", "/ns_per_op", "/ns_per_flow_event", "speedup", "_per_sec"}
	for _, file := range artifacts {
		recs := load(t, file)
		if out := compare(t, file, recs, recs); len(out) != 0 {
			t.Errorf("%s vs itself: %v", file, out)
		}
		for _, r := range recs {
			if r.Name == "netsim/start_finish_speedup" {
				continue
			}
			for _, suffix := range wall {
				if strings.HasSuffix(r.Name, suffix) && r.Gate != Recorded {
					t.Errorf("%s: wall-clock record %s gated %s", file, r.Name, r.Gate)
				}
			}
		}
	}
}

// pastGate returns r's value moved just beyond its gate, with a bound
// loosened enough to admit it: the committed bound must still apply.
func pastGate(r Record) Record {
	switch r.Gate {
	case Exact:
		if r.Text != "" {
			r.Text += "0"
		} else {
			r.Value++
		}
	case Band:
		r.Value += 2*r.Bound*math.Abs(r.Value) + math.SmallestNonzeroFloat64
		r.Bound = 1e6
	case Min:
		r.Value = math.Nextafter(r.Bound, math.Inf(-1))
		r.Bound = r.Value - 1
	case Max:
		r.Value = math.Nextafter(r.Bound, math.Inf(1))
		r.Bound = r.Value + 1
	}
	return r
}

// TestCommittedArtifactSabotage drives the gate with the real committed
// artifacts: every gated record pushed just past its gate, relabelled
// recorded, or deleted yields exactly one finding naming it, and every
// recorded record may change arbitrarily without one.
func TestCommittedArtifactSabotage(t *testing.T) {
	for _, file := range artifacts {
		recs := load(t, file)
		for i, r := range recs {
			fresh := append([]Record(nil), recs...)
			if r.Gate == Recorded {
				fresh[i].Value = fresh[i].Value*3 + 7
				fresh[i].Text += "zz"
				wantFindings(t, file+" "+r.Name+" changed", compare(t, file, recs, fresh))
				continue
			}
			fresh[i] = pastGate(r)
			wantFindings(t, file+" "+r.Name+" past gate", compare(t, file, recs, fresh), r.Name)

			fresh[i] = r
			fresh[i].Gate = Recorded
			out := compare(t, file, recs, fresh)
			wantFindings(t, file+" "+r.Name+" relabelled", out, r.Name)
			if len(out) == 1 && out[0].Check != "gate" {
				t.Errorf("%s: relabelled %s reported as %q", file, r.Name, out[0].Check)
			}

			fresh = append(append([]Record(nil), recs[:i]...), recs[i+1:]...)
			out = compare(t, file, recs, fresh)
			wantFindings(t, file+" "+r.Name+" deleted", out, r.Name)
			if len(out) == 1 && out[0].Check != "missing" {
				t.Errorf("%s: deleted %s reported as %q", file, r.Name, out[0].Check)
			}
		}
	}
}

// TestPerturbedSweepFails: a behavioral regression (different
// fingerprint, shifted mean) must trip the exact and band gates.
func TestPerturbedSweepFails(t *testing.T) {
	recs := load(t, "BENCH_sweep.json")
	fp := wantPolicy(t, recs, "sweep/e18-chaos/fingerprint", Exact, 0)
	mean := wantPolicy(t, recs, "sweep/e18-chaos/availability/mean", Band, 1e-9)
	fresh := edit(recs, fp.Name, setText("deadbeefdeadbeef"))
	fresh = edit(fresh, mean.Name, set(mean.Value*0.99))
	wantFindings(t, "perturbed", compare(t, "BENCH_sweep.json", recs, fresh), fp.Name, mean.Name)
}

func TestSweepStructuralRegressions(t *testing.T) {
	recs := load(t, "BENCH_sweep.json")
	wantPolicy(t, recs, "sweep/e3-slowdisk/errors", Max, 0)
	broken := edit(recs, "sweep/e3-slowdisk/errors", set(3))
	wantFindings(t, "broken", compare(t, "BENCH_sweep.json", recs, broken), "sweep/e3-slowdisk/errors")

	gone := edit(recs, "sweep/e13-purge/", drop)
	out := compare(t, "BENCH_sweep.json", recs, gone)
	if len(out) == 0 {
		t.Fatal("a vanished sweep passed the gate")
	}
	for _, f := range out {
		if f.Check != "missing" || !strings.HasPrefix(f.Record, "sweep/e13-purge/") {
			t.Errorf("unexpected finding %v", f)
		}
	}
}

// Wall-clock speedup varies by host CPU count and is recorded, not
// gated: a 1-CPU runner regenerating the artifact must still pass.
func TestSweepSpeedupNotGated(t *testing.T) {
	recs := load(t, "BENCH_sweep.json")
	slow := edit(recs, "sweep/e18-chaos/speedup", set(0.93))
	slow = edit(slow, "sweep/e18-chaos/parallel_ns", set(9e12))
	slow = edit(slow, "sweep/cpus", set(1))
	wantFindings(t, "slow host", compare(t, "BENCH_sweep.json", recs, slow))
}

// TestIntegrityGates: any undetected corrupt read at the default
// interval fails, a vanished exposure baseline invalidates the gate,
// excess scrub overhead trips its ceiling while in-band wobble passes,
// and the inherited sweep gates stay exact.
func TestIntegrityGates(t *testing.T) {
	const file = "BENCH_integrity.json"
	recs := load(t, file)
	replicas, _ := Find(recs, "integrity/e19-scrub-off/replicas")
	wantPolicy(t, recs, "integrity/undetected_reads_at_default", Max, 0)
	wantPolicy(t, recs, "integrity/undetected_reads_no_scrub", Min, 1/replicas.Value)
	wantPolicy(t, recs, "integrity/scrub_overhead_frac", Max, 0.25)
	for _, label := range []string{"e19-scrub-off", "e19-scrub-default", "e19-scrub-slow"} {
		wantPolicy(t, recs, "integrity/"+label+"/fingerprint", Exact, 0)
		wantPolicy(t, recs, "integrity/"+label+"/errors", Max, 0)
	}

	for _, c := range []struct {
		name string
		fn   func(r *Record) bool
	}{
		{"integrity/undetected_reads_at_default", set(0.25)},
		{"integrity/undetected_reads_no_scrub", set(0)},
		{"integrity/scrub_overhead_frac", set(0.41)},
		{"integrity/e19-scrub-default/fingerprint", setText("deadbeefdeadbeef")},
		{"integrity/e19-scrub-default/scrub_repairs/mean", set(1e6)},
	} {
		wantFindings(t, c.name, compare(t, file, recs, edit(recs, c.name, c.fn)), c.name)
	}

	wobble := edit(recs, "integrity/scrub_overhead_frac", set(0.168))
	wantFindings(t, "in-band overhead", compare(t, file, recs, wobble))
}

func TestNetsimGates(t *testing.T) {
	const file = "BENCH_netsim.json"
	recs := load(t, file)
	ratio, _ := Find(recs, "netsim/start_finish_alloc_ratio")
	wantPolicy(t, recs, ratio.Name, Min, 0.70*ratio.Value)
	wantPolicy(t, recs, "netsim/start_finish_speedup", Min, 1)
	for _, name := range []string{"start_finish/map_baseline", "start_finish/ordered", "spider2_congestion/ordered"} {
		r, _ := Find(recs, "netsim/"+name+"/allocs_per_op")
		wantPolicy(t, recs, r.Name, Max, r.Value*1.25+1)
	}

	for _, c := range []struct {
		name string
		v    float64
	}{
		{"netsim/start_finish_alloc_ratio", 3.2},
		{"netsim/start_finish_speedup", 0.8},
		{"netsim/start_finish/ordered/allocs_per_op", 40},
	} {
		wantFindings(t, c.name, compare(t, file, recs, edit(recs, c.name, set(c.v))), c.name)
	}

	// The ratio may fall to 70% of the committed value and no further,
	// whatever figure a regeneration commits.
	wantFindings(t, "in-tolerance drift", compare(t, file, recs, edit(recs, ratio.Name, set(0.85*ratio.Value))))
	wantFindings(t, "past-tolerance drift", compare(t, file, recs, edit(recs, ratio.Name, set(0.69*ratio.Value))),
		ratio.Name)
	if ratio.Value == 15.5 {
		drift := edit(recs, ratio.Name, set(13.0))
		wantFindings(t, "15.5 to 13.0", compare(t, file, recs, drift))
	}
}

func TestSpantraceGates(t *testing.T) {
	const file = "BENCH_spantrace.json"
	recs := load(t, file)
	wantPolicy(t, recs, "spantrace/overhead_frac", Max, 0.05)
	spans := wantPolicy(t, recs, "spantrace/spans_per_op", Band, 0.10)
	wantFindings(t, "overhead", compare(t, file, recs, edit(recs, "spantrace/overhead_frac", set(0.11))),
		"spantrace/overhead_frac")
	wantFindings(t, "sparse", compare(t, file, recs, edit(recs, spans.Name, set(spans.Value*0.85))),
		spans.Name)
	wantFindings(t, "in-band", compare(t, file, recs, edit(recs, spans.Name, set(spans.Value*1.05))))
}

// TestServeGates: a drifted probe fingerprint, a cold-vs-warm
// divergence, any failed session, or a vanished or empty execution
// path each trip the gate, while the latency-derived figures may swing
// freely — a 1-CPU host regenerating the artifact reports different
// ratios and must still pass.
func TestServeGates(t *testing.T) {
	const file = "BENCH_serve.json"
	recs := load(t, file)
	wantPolicy(t, recs, "serve/fingerprint", Exact, 0)
	wantPolicy(t, recs, "serve/deterministic", Min, 1)
	wantPolicy(t, recs, "serve/errors", Max, 0)
	for _, c := range []struct {
		name string
		fn   func(r *Record) bool
	}{
		{"serve/fingerprint", setText("deadbeefdeadbeef")},
		{"serve/deterministic", set(0)},
		{"serve/errors", set(2)},
		{"serve/cache/sessions", set(0)},
	} {
		wantFindings(t, c.name, compare(t, file, recs, edit(recs, c.name, c.fn)), c.name)
	}
	for _, path := range []string{"cold", "warm", "cache"} {
		wantPolicy(t, recs, "serve/"+path+"/sessions", Min, 1)
	}
	gone := edit(recs, "serve/warm/", drop)
	wantFindings(t, "vanished path", compare(t, file, recs, gone), "serve/warm/sessions")

	slow := edit(recs, "serve/warm_speedup", set(0.4))
	slow = edit(slow, "serve/cache_speedup", set(0.9))
	slow = edit(slow, "serve/warm/sessions_per_sec", set(4.1))
	slow = edit(slow, "serve/warm/p99_ns", set(990000000))
	wantFindings(t, "latency drift", compare(t, file, recs, slow))
}

// TestLedgerGates: a shifted root or head, a lost determinism or audit
// property, an undetected or vanished tamper class, or a drifted batch
// anchor head each trip a gate, while wall-clock throughput drift
// passes.
func TestLedgerGates(t *testing.T) {
	const file = "BENCH_ledger.json"
	recs := load(t, file)
	for _, name := range []string{"deterministic", "traced_identical", "audit_clean"} {
		wantPolicy(t, recs, "ledger/"+name, Min, 1)
	}
	for _, name := range []string{"entries", "anchors", "drops", "head", "roots", "root/000", "batch/64/head"} {
		wantPolicy(t, recs, "ledger/"+name, Exact, 0)
	}
	total, _ := Find(recs, "ledger/tampers")
	wantPolicy(t, recs, "ledger/tampers", Min, total.Value)
	wantPolicy(t, recs, "ledger/tampers/undetected", Max, 0)

	roots, _ := Find(recs, "ledger/roots")
	last := fmt.Sprintf("ledger/root/%03d", int(roots.Value)-1)
	for _, c := range []struct {
		name string
		fn   func(r *Record) bool
	}{
		{"ledger/head", setText("deadbeef")},
		{last, setText("deadbeef")},
		{"ledger/deterministic", set(0)},
		{"ledger/traced_identical", set(0)},
		{"ledger/audit_clean", set(0)},
		{"ledger/entries", set(41)},
		{"ledger/tamper/forged-suffix/detected", set(0)},
		{"ledger/tampers/undetected", set(1)},
		{total.Name, set(total.Value - 1)},
		{"ledger/batch/4096/head", setText("deadbeef")},
	} {
		wantFindings(t, c.name, compare(t, file, recs, edit(recs, c.name, c.fn)), c.name)
	}

	gone := edit(recs, "ledger/batch/4096/", drop)
	wantFindings(t, "vanished batch point", compare(t, file, recs, gone),
		"ledger/batch/4096/entries", "ledger/batch/4096/anchors", "ledger/batch/4096/head")

	wall := edit(recs, "ledger/batch/64/append_ns", set(9900000))
	wall = edit(wall, "ledger/batch/64/entries_per_sec", set(820000))
	wantFindings(t, "wall-clock drift", compare(t, file, recs, wall))
}

func TestSchemaMismatchAndErrors(t *testing.T) {
	committed := encode(t, load(t, "BENCH_spantrace.json"))
	other := strings.Replace(string(committed), Schema, "spiderfs-bench/3", 1)
	out, err := Compare("BENCH_spantrace.json", committed, []byte(other))
	if err != nil || len(out) != 1 || out[0].Check != "schema" {
		t.Errorf("schema mismatch: %v, %v", out, err)
	}

	if _, err := Compare("x.json", []byte("{not json"), []byte("{}")); err == nil {
		t.Error("malformed committed artifact should error")
	}
	if _, err := Compare("x.json", committed, []byte("{not json")); err == nil {
		t.Error("malformed fresh artifact should error")
	}
	if _, err := Compare("x.json", []byte(`{"schema":"nope/9"}`), []byte(`{"schema":"nope/9"}`)); err == nil {
		t.Error("unknown schema should error")
	}
	bogus := []byte(`{"schema":"` + Schema + `","records":[{"name":"a/b","value":1,"gate":"roughly"}]}`)
	if _, err := Compare("x.json", bogus, bogus); err == nil {
		t.Error("unknown committed gate should error")
	}
}

func TestCheckRejectsNaN(t *testing.T) {
	nan := Record{Name: "x", Value: math.NaN()}
	for _, c := range []Record{
		{Name: "x", Gate: Exact, Value: 1},
		{Name: "x", Gate: Band, Value: 1, Bound: 0.1},
		{Name: "x", Gate: Min, Bound: 1},
		{Name: "x", Gate: Max, Bound: 1},
	} {
		if detail, err := Check(c, nan); err != nil || detail == "" {
			t.Errorf("%s gate passed NaN (detail %q, err %v)", c.Gate, detail, err)
		}
	}
	if detail, err := Check(Record{Name: "x", Gate: Recorded}, nan); err != nil || detail != "" {
		t.Errorf("recorded gate flagged NaN: %q, %v", detail, err)
	}
}

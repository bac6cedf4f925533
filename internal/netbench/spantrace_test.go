package netbench

import (
	"testing"

	"spiderfs/internal/regress"
)

// The verify bench smoke drives these at -benchtime=1x so the traced
// and untraced congestion paths both stay runnable; the real overhead
// numbers come from the checked-in BENCH_spantrace.json artifact.
func BenchmarkSpantraceUntraced(b *testing.B) {
	spider2Spans(0, 128, nil)(b)
}

func BenchmarkSpantraceSampled(b *testing.B) {
	var spans float64
	spider2Spans(spantraceEvery, 128, &spans)(b)
	b.ReportMetric(spans, "spans/op")
}

// A quick span-suite run must produce both measurements, a sane span
// count, and an encodable artifact. The 5% overhead ceiling is only
// asserted on the full-scale artifact (cmd/benchsuite -suite
// spantrace): at the shrunken smoke scale the absolute per-op time is
// so small that scheduler noise swamps the tracer's real cost.
func TestSpanSuiteQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	recs := RunSpans(false)
	val := func(name string) regress.Record {
		t.Helper()
		r, ok := regress.Find(recs, name)
		if !ok {
			t.Fatalf("no record %s", name)
		}
		return r
	}
	if r := val("spantrace/sample_every"); r.Value != spantraceEvery {
		t.Fatalf("sample_every = %v, want %d", r.Value, spantraceEvery)
	}
	untraced := val("spantrace/spider2_congestion/untraced/ns_per_op").Value
	traced := val("spantrace/spider2_congestion/traced_1in64/ns_per_op").Value
	if untraced <= 0 || traced <= 0 {
		t.Fatalf("missing measurements: untraced %v, traced %v", untraced, traced)
	}
	if r := val("spantrace/overhead_pairs"); r.Value != 1 || r.Gate != regress.Recorded {
		t.Fatalf("overhead pairs %+v, want 1 recorded at smoke scale", r)
	}
	if r := val("spantrace/overhead_frac"); r.Gate != regress.Max || r.Bound != 0.05 {
		t.Fatalf("overhead gate %+v, want max 0.05", r)
	}
	// 128 flows at 1-in-64 sampling → about 2 roots/op, each with a
	// send+flow pair and a handful of hop marks.
	spans := val("spantrace/spans_per_op")
	if spans.Value <= 0 || spans.Value > 128 || spans.Gate != regress.Band || spans.Bound != 0.10 {
		t.Fatalf("spans/op = %+v, want a small positive count banded at 10%%", spans)
	}
	if out, err := regress.Encode(recs); err != nil || len(out) == 0 {
		t.Fatalf("encode failed: %v", err)
	}
}

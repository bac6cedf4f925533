package netbench

import (
	"fmt"
	"testing"

	"spiderfs/internal/netsim"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/stats"
	"spiderfs/internal/topology"
)

// The spantrace overhead benchmark: the Spider II-scale congestion
// workload run twice on identical seeds — once untraced, once with a
// sampling tracer attached to the fabric — so the delta is exactly the
// cost of the tracing plane. The acceptance bar for the plane is <=5%
// wall-clock overhead at 1-in-64 sampling (the always-on production
// setting); anything dearer would make operators turn it off, which is
// how observability planes die.
const spantraceEvery = 64

// spider2Spans is spider2Congestion with an optional tracer. every<=0
// runs untraced; batch lets the smoke tests shrink the wave while the
// artifact uses the production spider2Batch.
func spider2Spans(every, batch int, spans *float64) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		cfg := netsim.Spider2Fabric()
		pl := topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
		f := netsim.NewFabric(eng, cfg, pl, spider2OSSes)
		var tr *spantrace.Tracer
		if every > 0 {
			tr = spantrace.New(rng.New(9), every)
			tr.Bind(eng)
			f.Tracer = tr
		}
		src := rng.New(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				client := src.Intn(spider2Clients)
				c := cfg.Torus.CoordOf(client % cfg.Torus.Nodes())
				f.StartClientFlow(c, src.Intn(spider2OSSes), netsim.RouteFGR, spider2Bytes, src, nil)
			}
			eng.Run()
		}
		b.StopTimer()
		if spans != nil {
			*spans = float64(tr.Len()) / float64(b.N)
		}
	}
}

// spantracePairs is how many untraced/traced pairs the artifact's
// overhead is the median of. The pairs alternate which side runs first,
// so a host that speeds up or slows down during the run biases neither
// side.
const spantracePairs = 5

// RunSpans measures tracing overhead and returns the
// BENCH_spantrace.json records. full=true uses the production
// 2,048-flow waves of the Spider II congestion benchmark and
// spantracePairs pairs (the artifact generator: `go run
// ./cmd/benchsuite -suite spantrace -out BENCH_spantrace.json`);
// full=false shrinks the wave and runs one pair so tests stay quick.
// The overhead is the median of the per-pair (traced-untraced)/untraced
// ratios, and each side's ns/op the median over its runs. The overhead
// is gated against the plane's absolute 5% acceptance ceiling, not
// relative to a committed (often negative, i.e. in-noise) value; spans
// per op are a sampling count, deterministic up to batch rounding, and
// may drift 10%.
func RunSpans(full bool) []regress.Record {
	batch, pairs := 128, 1
	if full {
		batch, pairs = spider2Batch, spantracePairs
	}
	runUntraced := func() result {
		return measure("spider2_congestion/untraced", spider2Spans(0, batch, nil))
	}
	var spans float64
	runTraced := func() result {
		return measure(fmt.Sprintf("spider2_congestion/traced_1in%d", spantraceEvery),
			spider2Spans(spantraceEvery, batch, &spans))
	}
	var untraced, traced result
	var untracedNs, tracedNs, ratios []float64
	for i := 0; i < pairs; i++ {
		if i%2 == 0 {
			untraced = runUntraced()
		}
		traced = runTraced()
		if i%2 == 1 {
			untraced = runUntraced()
		}
		untracedNs = append(untracedNs, untraced.nsPerOp)
		tracedNs = append(tracedNs, traced.nsPerOp)
		ratio := 0.0
		if untraced.nsPerOp > 0 {
			ratio = (traced.nsPerOp - untraced.nsPerOp) / untraced.nsPerOp
		}
		ratios = append(ratios, ratio)
	}
	untraced.nsPerOp = stats.Percentile(untracedNs, 0.5)
	traced.nsPerOp = stats.Percentile(tracedNs, 0.5)
	recs := []regress.Record{{Name: "spantrace/sample_every", Value: spantraceEvery, Gate: regress.Recorded}}
	recs = append(recs, untraced.records("spantrace/", false)...)
	recs = append(recs, traced.records("spantrace/", false)...)
	recs = append(recs,
		regress.Record{Name: "spantrace/overhead_pairs", Value: float64(pairs), Unit: "count", Gate: regress.Recorded},
		regress.Record{Name: "spantrace/overhead_frac", Value: stats.Percentile(ratios, 0.5), Unit: "ratio", Gate: regress.Max, Bound: 0.05},
		regress.Record{Name: "spantrace/spans_per_op", Value: spans, Unit: "count", Gate: regress.Band, Bound: 0.10})
	if full {
		cfg := netsim.Spider2Fabric()
		f := netsim.NewFabric(sim.NewEngine(), cfg, topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9), spider2OSSes)
		recs = append(recs, scaleRecords("spantrace/", f, cfg.Torus.Nodes())...)
	}
	return recs
}

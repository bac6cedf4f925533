package netbench

import (
	"testing"

	"spiderfs/internal/netsim"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// result is one benchmark measurement.
type result struct {
	name        string
	nsPerOp     float64
	bytesPerOp  int64
	allocsPerOp int64
}

// records renders r under prefix. Wall time and bytes are recorded;
// with gateAllocs, allocs/op is capped at 1.25x its value plus one:
// allocation counts are stable across runs, but compiler versions
// shift them slightly.
func (r result) records(prefix string, gateAllocs bool) []regress.Record {
	p := prefix + r.name + "/"
	allocs := regress.Record{Name: p + "allocs_per_op", Value: float64(r.allocsPerOp), Unit: "count", Gate: regress.Recorded}
	if gateAllocs {
		allocs.Gate, allocs.Bound = regress.Max, allocs.Value*1.25+1
	}
	return []regress.Record{
		{Name: p + "ns_per_op", Value: r.nsPerOp, Unit: "ns", Gate: regress.Recorded},
		{Name: p + "bytes_per_op", Value: float64(r.bytesPerOp), Unit: "B", Gate: regress.Recorded},
		allocs,
	}
}

// scaleRecords records the fabric dimensions of the full-scale
// benchmark.
func scaleRecords(prefix string, f *netsim.Fabric, torusNodes int) []regress.Record {
	p := prefix + "scale/"
	return []regress.Record{
		{Name: p + "clients", Value: spider2Clients, Unit: "count", Gate: regress.Recorded},
		{Name: p + "routers", Value: float64(f.NumRouters()), Unit: "count", Gate: regress.Recorded},
		{Name: p + "osses", Value: spider2OSSes, Unit: "count", Gate: regress.Recorded},
		{Name: p + "torus_nodes", Value: float64(torusNodes), Unit: "count", Gate: regress.Recorded},
		{Name: p + "links", Value: float64(len(f.Net.Links())), Unit: "count", Gate: regress.Recorded},
	}
}

func measure(name string, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	return result{
		name:        name,
		nsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		bytesPerOp:  r.AllocedBytesPerOp(),
		allocsPerOp: r.AllocsPerOp(),
	}
}

// The churn workload: flows of 1 MB across one or two of eight shared
// 1 GB/s links, picks drawn from a fixed seed, the engine drained every
// 64 starts. Both implementations consume the identical pick stream, so
// the comparison isolates the bookkeeping.
const (
	churnLinks = 8
	churnDrain = 64
	churnSeed  = 1
)

func churnOrdered(b *testing.B) {
	eng := sim.NewEngine()
	n := netsim.NewNetwork(eng)
	links := make([]*netsim.Link, churnLinks)
	for i := range links {
		links[i] = n.NewLink("l", 1e9, 0)
	}
	src := rng.New(churnSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := []*netsim.Link{links[src.Intn(churnLinks)], links[src.Intn(churnLinks)]}
		if path[0] == path[1] {
			path = path[:1]
		}
		n.StartFlow(path, 1e6, nil)
		if i%churnDrain == churnDrain-1 {
			eng.Run()
		}
	}
	eng.Run()
}

func churnBaseline(b *testing.B) {
	eng := sim.NewEngine()
	n := newMapNetwork(eng)
	links := make([]*mapLink, churnLinks)
	for i := range links {
		links[i] = n.newLink(1e9, 0)
	}
	src := rng.New(churnSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := []*mapLink{links[src.Intn(churnLinks)], links[src.Intn(churnLinks)]}
		if path[0] == path[1] {
			path = path[:1]
		}
		n.start(path, 1e6, nil)
		if i%churnDrain == churnDrain-1 {
			eng.Run()
		}
	}
	eng.Run()
}

// The full-scale workload: Titan's 18,688 compute clients (two per
// Gemini ASIC on the 25x16x24 torus), the production router placement
// (110 I/O modules, 440 LNET routers), and Spider II's 288 OSSes. Each
// op launches a wave of striped writes — enough concurrency that every
// OSS port and router serves several flows at once — and drains it, so
// the measured cost is the start/finish/re-rate path under congestion.
const (
	spider2Clients = 18688
	spider2OSSes   = 288
	spider2Batch   = 2048
	spider2Bytes   = 32e6
)

func spider2Congestion(events *float64, scale *[]regress.Record) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		cfg := netsim.Spider2Fabric()
		pl := topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
		f := netsim.NewFabric(eng, cfg, pl, spider2OSSes)
		if scale != nil {
			*scale = scaleRecords("netsim/", f, cfg.Torus.Nodes())
		}
		src := rng.New(7)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < spider2Batch; j++ {
				client := src.Intn(spider2Clients)
				c := cfg.Torus.CoordOf(client % cfg.Torus.Nodes())
				f.StartClientFlow(c, src.Intn(spider2OSSes), netsim.RouteFGR, spider2Bytes, src, nil)
			}
			eng.Run()
		}
		b.StopTimer()
		*events = float64(eng.Fired()) / float64(b.N)
	}
}

// Run executes the suite and returns the BENCH_netsim.json records.
// full=false skips the Spider II-scale fabric benchmark (tests use
// that; the checked-in artifact is generated with full=true via
// `go run ./cmd/benchsuite -suite netsim -out BENCH_netsim.json`).
func Run(full bool) []regress.Record {
	base := measure("start_finish/map_baseline", churnBaseline)
	ord := measure("start_finish/ordered", churnOrdered)
	recs := append(base.records("netsim/", true), ord.records("netsim/", true)...)
	if full {
		var events float64
		var scale []regress.Record
		r := measure("spider2_congestion/ordered", spider2Congestion(&events, &scale))
		perEvent := 0.0
		if events > 0 {
			perEvent = r.nsPerOp / events
		}
		recs = append(recs, r.records("netsim/", true)...)
		recs = append(recs,
			regress.Record{Name: "netsim/spider2_congestion/ordered/flow_events_per_op", Value: events, Unit: "count", Gate: regress.Recorded},
			regress.Record{Name: "netsim/spider2_congestion/ordered/ns_per_flow_event", Value: perEvent, Unit: "ns", Gate: regress.Recorded})
		recs = append(recs, scale...)
	}
	// The headline regression numbers: the ordered registries versus the
	// frozen map baseline on the identical start/finish churn workload.
	// The alloc ratio may fall to 70% of this run's value before the
	// gate trips; the ordered path must still beat the map baseline
	// outright (the margin is several-fold, so 1.0 is a generous noise
	// allowance).
	ratio, speedup := 0.0, 0.0
	if ord.allocsPerOp > 0 {
		ratio = float64(base.allocsPerOp) / float64(ord.allocsPerOp)
	}
	if ord.nsPerOp > 0 {
		speedup = base.nsPerOp / ord.nsPerOp
	}
	return append(recs,
		regress.Record{Name: "netsim/start_finish_alloc_ratio", Value: ratio, Unit: "ratio", Gate: regress.Min, Bound: 0.70 * ratio},
		regress.Record{Name: "netsim/start_finish_speedup", Value: speedup, Unit: "ratio", Gate: regress.Min, Bound: 1})
}

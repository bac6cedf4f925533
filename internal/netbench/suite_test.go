package netbench

import (
	"testing"

	"spiderfs/internal/netsim"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
)

// The frozen baseline must still be a faithful copy of the fluid model:
// on an identical workload, both solvers complete the same flows and
// the drain finishes at (floating-point-near) the same instant. If the
// baseline drifted, the benchmark comparison would be meaningless.
func TestBaselineMatchesOrderedSolver(t *testing.T) {
	const flows = 200
	type pick struct{ a, b int }
	src := rng.New(13)
	picks := make([]pick, flows)
	for i := range picks {
		picks[i] = pick{src.Intn(churnLinks), src.Intn(churnLinks)}
	}

	ordEng := sim.NewEngine()
	ordNet := netsim.NewNetwork(ordEng)
	ordLinks := make([]*netsim.Link, churnLinks)
	for i := range ordLinks {
		ordLinks[i] = ordNet.NewLink("l", 1e9, 0)
	}
	for _, p := range picks {
		path := []*netsim.Link{ordLinks[p.a], ordLinks[p.b]}
		if p.a == p.b {
			path = path[:1]
		}
		ordNet.StartFlow(path, 1e6, nil)
	}
	ordEng.Run()

	baseEng := sim.NewEngine()
	baseNet := newMapNetwork(baseEng)
	baseLinks := make([]*mapLink, churnLinks)
	for i := range baseLinks {
		baseLinks[i] = baseNet.newLink(1e9, 0)
	}
	for _, p := range picks {
		path := []*mapLink{baseLinks[p.a], baseLinks[p.b]}
		if p.a == p.b {
			path = path[:1]
		}
		baseNet.start(path, 1e6, nil)
	}
	baseEng.Run()

	if ordNet.FlowsCompleted != flows || baseNet.flowsCompleted != flows {
		t.Fatalf("completions: ordered %d, baseline %d, want %d",
			ordNet.FlowsCompleted, baseNet.flowsCompleted, flows)
	}
	// The two implementations advance flows at different instants, so
	// their remaining-bytes arithmetic may differ in the last float bits;
	// allow a microsecond of drift on a multi-second drain.
	d := ordEng.Now() - baseEng.Now()
	if d < 0 {
		d = -d
	}
	if d > sim.Microsecond {
		t.Fatalf("drain ends diverge: ordered %v, baseline %v", ordEng.Now(), baseEng.Now())
	}
}

// The refactor's headline claim, checked cheaply with AllocsPerRun: a
// fan-in burst (8 flows sharing one link) followed by a drain must
// allocate at least 2x less under the ordered registries than under the
// map baseline. The baseline pays an affected-set map per start/finish
// and re-allocates every sibling's completion event on each arrival;
// the ordered path allocates only the flow, its path, and one event.
func TestOrderedHalvesStartFinishAllocations(t *testing.T) {
	const fanIn = 8
	ordEng := sim.NewEngine()
	ordNet := netsim.NewNetwork(ordEng)
	ordLink := ordNet.NewLink("l", 1e9, 0)
	ordered := testing.AllocsPerRun(100, func() {
		for i := 0; i < fanIn; i++ {
			ordNet.StartFlow([]*netsim.Link{ordLink}, 1e6, nil)
		}
		ordEng.Run()
	})

	baseEng := sim.NewEngine()
	baseNet := newMapNetwork(baseEng)
	baseLink := baseNet.newLink(1e9, 0)
	baseline := testing.AllocsPerRun(100, func() {
		for i := 0; i < fanIn; i++ {
			baseNet.start([]*mapLink{baseLink}, 1e6, nil)
		}
		baseEng.Run()
	})

	if ordered*2 > baseline {
		t.Fatalf("ordered start/finish allocates %.1f/run vs baseline %.1f/run, want >=2x fewer",
			ordered, baseline)
	}
}

// A quick (non-full) suite run must produce both churn results and the
// headline ratios; this keeps the artifact generator exercised in CI.
func TestSuiteQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	recs := Run(false)
	for _, name := range []string{
		"netsim/start_finish/map_baseline/allocs_per_op",
		"netsim/start_finish/ordered/allocs_per_op",
	} {
		r, ok := regress.Find(recs, name)
		if !ok || r.Gate != regress.Max || r.Bound != r.Value*1.25+1 {
			t.Fatalf("%s: %+v (found %v), want max 1.25x+1", name, r, ok)
		}
	}
	if _, ok := regress.Find(recs, "netsim/spider2_congestion/ordered/ns_per_op"); ok {
		t.Fatal("quick run measured the full-scale benchmark")
	}
	ratio, _ := regress.Find(recs, "netsim/start_finish_alloc_ratio")
	if ratio.Value < 2 || ratio.Gate != regress.Min || ratio.Bound != 0.70*ratio.Value {
		t.Fatalf("alloc ratio %+v, want >= 2 (acceptance floor) gated at 70%%", ratio)
	}
	if sp, _ := regress.Find(recs, "netsim/start_finish_speedup"); sp.Gate != regress.Min || sp.Bound != 1 {
		t.Fatalf("speedup %+v, want min 1", sp)
	}
	if out, err := regress.Encode(recs); err != nil || len(out) == 0 {
		t.Fatalf("encode failed: %v", err)
	}
}

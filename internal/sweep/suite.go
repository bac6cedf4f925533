package sweep

import (
	"fmt"
	"runtime"

	"spiderfs/internal/regress"
)

// Clock returns monotonic nanoseconds. The caller injects it (cmd
// binaries pass a wall clock, tests a counter) so this package stays
// wall-clock-free under the no-wallclock invariant; a nil Clock records
// zero durations.
type Clock func() int64

// Entry is one named sweep a suite runs.
type Entry struct {
	Label    string
	Replicas int
	Seed     uint64
	Body     Body
}

// RunSuite runs every entry twice — serially (1 worker) and on a
// workers-wide pool — verifies the merged reports are byte-identical,
// and returns bench records named suite/<label>/...: the double-run
// evidence, the fingerprint, the replica error count and per-metric
// statistics (means band-gated, the rest recorded), plus the
// serial-vs-parallel timings (recorded: on a single-CPU host the
// speedup is ~1 by physics, and the cpus record says which case this
// is). It errors if any entry's double-run diverges: a
// nondeterministic sweep is a broken sweep, not a slow one.
func RunSuite(suite string, entries []Entry, workers int, clock Clock) ([]regress.Record, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	now := func() int64 { return 0 }
	if clock != nil {
		now = clock
	}
	recs := []regress.Record{
		{Name: suite + "/cpus", Value: float64(runtime.GOMAXPROCS(0)), Unit: "count", Gate: regress.Recorded},
		{Name: suite + "/workers", Value: float64(workers), Unit: "count", Gate: regress.Recorded},
	}
	for _, e := range entries {
		cfg := Config{Label: e.Label, Seed: e.Seed, Replicas: e.Replicas, Workers: 1}
		t0 := now()
		serial, err := Run(cfg, e.Body)
		if err != nil {
			return nil, fmt.Errorf("sweep suite %s (serial): %w", e.Label, err)
		}
		t1 := now()
		cfg.Workers = workers
		parallel, err := Run(cfg, e.Body)
		if err != nil {
			return nil, fmt.Errorf("sweep suite %s (parallel): %w", e.Label, err)
		}
		t2 := now()
		if serial.Report() != parallel.Report() {
			return nil, fmt.Errorf("sweep suite %s: serial (fingerprint %016x) and parallel (%016x) merged reports differ",
				e.Label, serial.Fingerprint(), parallel.Fingerprint())
		}

		p := suite + "/" + e.Label + "/"
		speedup := 0.0
		if t2 > t1 {
			speedup = float64(t1-t0) / float64(t2-t1)
		}
		recs = append(recs,
			regress.Record{Name: p + "deterministic", Value: 1, Gate: regress.Min, Bound: 1},
			regress.Record{Name: p + "fingerprint", Text: fmt.Sprintf("%016x", parallel.Fingerprint()), Gate: regress.Exact},
			regress.Record{Name: p + "errors", Value: float64(parallel.Errors), Unit: "count", Gate: regress.Max},
			regress.Record{Name: p + "replicas", Value: float64(e.Replicas), Unit: "count", Gate: regress.Recorded},
			regress.Record{Name: p + "seed", Value: float64(e.Seed), Gate: regress.Recorded},
			regress.Record{Name: p + "serial_ns", Value: float64(t1 - t0), Unit: "ns", Gate: regress.Recorded},
			regress.Record{Name: p + "parallel_ns", Value: float64(t2 - t1), Unit: "ns", Gate: regress.Recorded},
			regress.Record{Name: p + "speedup", Value: speedup, Unit: "ratio", Gate: regress.Recorded},
		)
		for _, m := range parallel.Aggregate() {
			mp := p + m.Name + "/"
			recs = append(recs,
				regress.Record{Name: mp + "mean", Value: m.Mean, Gate: regress.Band, Bound: meanTol},
				regress.Record{Name: mp + "n", Value: float64(m.N), Unit: "count", Gate: regress.Recorded},
				regress.Record{Name: mp + "stddev", Value: m.Stddev, Gate: regress.Recorded},
				regress.Record{Name: mp + "min", Value: m.Min, Gate: regress.Recorded},
				regress.Record{Name: mp + "max", Value: m.Max, Gate: regress.Recorded},
				regress.Record{Name: mp + "p50", Value: m.P50, Gate: regress.Recorded},
				regress.Record{Name: mp + "ci95_half", Value: m.CI95, Gate: regress.Recorded},
			)
		}
	}
	return recs, nil
}

// meanTol is the band on every gated metric mean: sweeps are fully
// deterministic, so only float formatting round-trip error is allowed.
const meanTol = 1e-9

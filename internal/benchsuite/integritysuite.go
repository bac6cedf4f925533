package benchsuite

import (
	"spiderfs/internal/integrity"
	"spiderfs/internal/regress"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
)

// IntegrityEntries returns the E19 sweep: the same storm+failure
// scenario replicated at three scrub pass intervals — off (the exposure
// baseline), the default (which must drive undetected corrupt reads to
// zero), and a deliberately slow interval that loses the race.
func IntegrityEntries(seed uint64) []sweep.Entry {
	base := integrity.DefaultScenario()
	return []sweep.Entry{
		{Label: "e19-scrub-off", Replicas: 8, Seed: seed,
			Body: integrity.E19Replica(base, 0)},
		{Label: "e19-scrub-default", Replicas: 8, Seed: seed,
			Body: integrity.E19Replica(base, integrity.DefaultScrubInterval)},
		{Label: "e19-scrub-slow", Replicas: 8, Seed: seed,
			Body: integrity.E19Replica(base, 30*sim.Minute)},
	}
}

// RunIntegritySuite runs the E19 sweep through the double-run suite
// harness and appends the headline records derived from replica means.
// Zero undetected corrupt reads at the default interval is the
// acceptance property of the integrity plane; the unscrubbed exposure
// must stay positive or that zero proves nothing. A replica mean of
// integer counts is a multiple of 1/replicas, so a floor of 1/replicas
// is exactly "> 0".
func RunIntegritySuite(seed uint64, workers int, clock sweep.Clock) ([]regress.Record, error) {
	entries := IntegrityEntries(seed)
	recs, err := sweep.RunSuite("integrity", entries, workers, clock)
	if err != nil {
		return nil, err
	}
	mean := func(label, metric string) float64 {
		r, _ := regress.Find(recs, "integrity/"+label+"/"+metric+"/mean")
		return r.Value
	}
	overhead := 0.0
	if off := mean("e19-scrub-off", "mean_read_ms"); off > 0 {
		overhead = mean("e19-scrub-default", "mean_read_ms")/off - 1
	}
	// entries[0] is the scrub-off exposure baseline.
	return append(recs,
		regress.Record{Name: "integrity/default_scrub_interval_s", Value: integrity.DefaultScrubInterval.Seconds(), Unit: "s", Gate: regress.Recorded},
		regress.Record{Name: "integrity/undetected_reads_at_default", Value: mean("e19-scrub-default", "undetected_reads"), Unit: "count", Gate: regress.Max},
		regress.Record{Name: "integrity/undetected_reads_no_scrub", Value: mean("e19-scrub-off", "undetected_reads"), Unit: "count", Gate: regress.Min, Bound: 1 / float64(entries[0].Replicas)},
		regress.Record{Name: "integrity/rebuild_latent_hits_at_default", Value: mean("e19-scrub-default", "rebuild_latent_hits"), Unit: "count", Gate: regress.Recorded},
		regress.Record{Name: "integrity/rebuild_latent_hits_no_scrub", Value: mean("e19-scrub-off", "rebuild_latent_hits"), Unit: "count", Gate: regress.Recorded},
		regress.Record{Name: "integrity/lost_stripes_no_scrub", Value: mean("e19-scrub-off", "lost_stripes"), Unit: "count", Gate: regress.Recorded},
		// Foreground read-latency tax of default scrubbing versus none.
		regress.Record{Name: "integrity/scrub_overhead_frac", Value: overhead, Unit: "ratio", Gate: regress.Max, Bound: 0.25},
	), nil
}

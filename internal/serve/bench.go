package serve

import (
	"runtime"
	"sort"

	"spiderfs/internal/regress"
)

// Bench parameters: enough sessions per path for stable percentiles,
// small enough that regenerating BENCH_serve.json stays in CI budget.
const (
	benchSessions = 12
	benchSeedBase = 1000
)

// pathStat is one execution path's latency distribution.
type pathStat struct {
	path           string // cold | warm | cache
	sessions       int
	sessionsPerSec float64
	p50Ns, p99Ns   float64
}

// benchSpec is the probe workload every phase runs (seed varied per
// session to defeat the cache where the pool is under test).
func benchSpec(seed uint64) Spec {
	return Spec{Kind: "workload", Seed: seed, Waves: 2, Flows: 128, Bytes: 8e6}
}

// runPhase submits one session per seed on svc, waits for all of them,
// and returns per-seed fingerprints (index-aligned with seeds; empty on
// failure) plus the latency distribution. Submission retries on ErrBusy
// by waiting for an earlier session — the bench drives the service at
// its own pace; shedding is exercised by the backpressure tests.
func runPhase(svc *Service, path string, seeds []uint64, clock func() int64) (pathStat, []string, int) {
	var t0 int64
	if clock != nil {
		t0 = clock()
	}
	prints := make([]string, len(seeds))
	sessions := make([]*Session, len(seeds))
	var pending []*Session
	errs := 0
	for i, seed := range seeds {
		for {
			sess, err := svc.Submit(benchSpec(seed))
			if err == nil {
				sessions[i] = sess
				pending = append(pending, sess)
				break
			}
			if len(pending) == 0 {
				// Queue full with nothing of ours outstanding: give up on
				// this seed (counted as an error below).
				errs++
				break
			}
			_, _ = pending[0].Wait()
			pending = pending[1:]
		}
	}
	var lats []float64
	for i, sess := range sessions {
		if sess == nil {
			continue
		}
		rep, err := sess.Wait()
		if err != nil {
			errs++
			continue
		}
		prints[i] = rep.Fingerprint
		lats = append(lats, float64(sess.LatencyNs()))
	}
	st := pathStat{path: path, sessions: len(lats)}
	if len(lats) > 0 {
		sort.Float64s(lats)
		st.p50Ns = lats[len(lats)/2]
		st.p99Ns = lats[(len(lats)*99+99)/100-1]
	}
	if clock != nil && len(lats) > 0 {
		if wall := clock() - t0; wall > 0 {
			st.sessionsPerSec = float64(len(lats)) / (float64(wall) / 1e9)
		}
	}
	return st, prints, errs
}

// RunBench measures sessions/sec and latency percentiles for the three
// execution paths — cold build, warm-pool reuse, and cache hit — and
// cross-checks that cold and warm runs of every seed agree on their
// fingerprints. It returns the BENCH_serve.json records: the probe
// fingerprint is exact-gated, the cold-vs-warm agreement, the error
// count and each path's session count are bounded, and the
// latency-derived figures are recorded, never gated — a 1-CPU host
// legitimately reports different ratios. clock supplies wall
// nanoseconds (nil leaves timing records zero).
func RunBench(clock func() int64) []regress.Record {
	const workers = 2
	seeds := make([]uint64, benchSessions)
	for i := range seeds {
		seeds[i] = benchSeedBase + uint64(i)
	}

	// Cold: no warm retention, distinct seeds — every session builds.
	coldSvc := New(Config{Workers: workers, PoolSize: 0, QueueDepth: benchSessions, CacheSize: 0, Clock: clock})
	cold, coldPrints, coldErrs := runPhase(coldSvc, "cold", seeds, clock)
	coldSvc.Close()

	// Warm: prewarmed pool, cache disabled, same seeds — every session
	// reuses a reset instance.
	warmSvc := New(Config{Workers: workers, PoolSize: workers, QueueDepth: benchSessions, CacheSize: 0, Clock: clock})
	warmSvc.Prewarm(workers, false)
	warm, warmPrints, warmErrs := runPhase(warmSvc, "warm", seeds, clock)
	_, poolReuses, _, _ := warmSvc.pool.counters()
	warmSvc.Close()

	// Cache: one priming miss, then the same spec repeatedly — hits.
	cacheSvc := New(Config{Workers: workers, PoolSize: workers, QueueDepth: benchSessions + 1, Clock: clock})
	prime := make([]uint64, 1, benchSessions+1)
	prime[0] = seeds[0]
	_, _, primeErrs := runPhase(cacheSvc, "prime", prime, clock)
	hits := make([]uint64, benchSessions)
	for i := range hits {
		hits[i] = seeds[0]
	}
	cache, _, cacheErrs := runPhase(cacheSvc, "cache", hits, clock)
	st := cacheSvc.Stats(false)
	cacheSvc.Close()

	deterministic := true
	for i := range seeds {
		if coldPrints[i] == "" || coldPrints[i] != warmPrints[i] {
			deterministic = false
		}
	}
	speedup := func(p pathStat) float64 {
		if p.p50Ns > 0 {
			return cold.p50Ns / p.p50Ns
		}
		return 0
	}
	recs := []regress.Record{
		{Name: "serve/fingerprint", Text: coldPrints[0], Gate: regress.Exact},
		{Name: "serve/deterministic", Value: regress.Bool(deterministic), Gate: regress.Min, Bound: 1},
		{Name: "serve/errors", Value: float64(coldErrs + warmErrs + primeErrs + cacheErrs), Unit: "count", Gate: regress.Max},
		{Name: "serve/cpus", Value: float64(runtime.NumCPU()), Unit: "count", Gate: regress.Recorded},
		{Name: "serve/workers", Value: workers, Unit: "count", Gate: regress.Recorded},
		{Name: "serve/pool_size", Value: workers, Unit: "count", Gate: regress.Recorded},
		{Name: "serve/cache_hits", Value: float64(st.CacheHits), Unit: "count", Gate: regress.Recorded},
		{Name: "serve/cache_misses", Value: float64(st.CacheMisses), Unit: "count", Gate: regress.Recorded},
		{Name: "serve/cache_evictions", Value: float64(st.CacheEvictions), Unit: "count", Gate: regress.Recorded},
		{Name: "serve/pool_reuses", Value: float64(poolReuses), Unit: "count", Gate: regress.Recorded},
		{Name: "serve/warm_speedup", Value: speedup(warm), Unit: "ratio", Gate: regress.Recorded},
		{Name: "serve/cache_speedup", Value: speedup(cache), Unit: "ratio", Gate: regress.Recorded},
	}
	for _, p := range []pathStat{cold, warm, cache} {
		pre := "serve/" + p.path + "/"
		recs = append(recs,
			regress.Record{Name: pre + "sessions", Value: float64(p.sessions), Unit: "count", Gate: regress.Min, Bound: 1},
			regress.Record{Name: pre + "sessions_per_sec", Value: p.sessionsPerSec, Unit: "1/s", Gate: regress.Recorded},
			regress.Record{Name: pre + "p50_ns", Value: p.p50Ns, Unit: "ns", Gate: regress.Recorded},
			regress.Record{Name: pre + "p99_ns", Value: p.p99Ns, Unit: "ns", Gate: regress.Recorded})
	}
	return recs
}

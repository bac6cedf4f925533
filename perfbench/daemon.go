package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"spiderfs/internal/rng"
	"spiderfs/internal/serve"
)

// daemon-mix: an in-process spidersimd on a loopback listener, driven
// over its HTTP API by one closed-loop tenant on one connection. Each
// session POSTs a spec, follows /events to the terminal event, then
// fetches and decodes /report. The seed fixes the mix: fresh small
// workload sessions (the warm pool path) and repeats of a spec the
// tenant already completed (the cache path).
//
// The mix has no chaos sessions: about 4% of 1-day quick chaos seeds
// panic in raid.(*Group).StartRebuild ("rebuilding an online member"),
// reached from the chaos campaign's enclosure repair sweep, and the
// panic ends the whole service process. METRICS.md records the gap.
//
// One tenant, not two: on two CPUs, two tenants keep both busy with
// simulations while the HTTP, event-stream and collector goroutines
// wait for a processor, so the latency tail measured the Go scheduler
// and any other load on the host. With one tenant the sessions run one
// at a time, so the process CPU time from a session's submit to its
// decoded report is that session's cost: session_p50_ms and
// session_p99_ms read it, and the wall times are per-layer figures.
const (
	daemonSetups = 21 // set-up repeats behind setup_s
	repeatWindow = 30 // a repeat picks among the tenant's last 30 fresh workloads, all still cached
	soloEvery    = 5  // round 0 checks every 5th fresh report against serve.RunSolo
)

// Session kinds of the mix. They match the execution paths the
// service reports in a session's running event.
const (
	kindWarm  = "warm"  // a fresh workload spec
	kindCache = "cache" // a workload spec this tenant already completed
)

// mix is the tenant's sessions per round, by kind.
type mix struct{ warm, cache int }

// mixFor gives the tenant's round: 80% warm and 20% cache sessions,
// 100 a round (tiny: 10).
func mixFor(tiny bool) mix {
	if tiny {
		return mix{8, 2}
	}
	return mix{80, 20}
}

// daemon is the service under test and its HTTP front end.
type daemon struct {
	svc   *serve.Service
	srv   *http.Server
	base  string
	ended chan struct{} // closed when Serve returns
}

func startDaemon(clock func() int64) (*daemon, error) {
	svc := serve.New(serve.Config{Seed: 1, Workers: 1, PoolSize: 1, Clock: clock})
	svc.Prewarm(1, false)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{
		svc: svc, srv: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(), ended: make(chan struct{}),
	}
	go func() {
		defer close(d.ended)
		_ = d.srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return d, nil
}

// stop closes the listener and connections, then drains the service.
func (d *daemon) stop() {
	_ = d.srv.Close() // the error is the listener's close error; the service is stopped either way
	<-d.ended
	d.svc.Close()
}

// sessionRec is one session as the tenant saw it.
type sessionRec struct {
	kind   string
	spec   serve.Spec
	path   string        // execution path from the running event: cold, warm or cache
	state  string        // terminal state
	total  time.Duration // wall time from submit to decoded report
	cpu    time.Duration // process CPU time over the same interval
	submit time.Duration
	report time.Duration
	execNs int64 // the service's own execution latency
	rep    serve.Report
	body   []byte // raw report, kept for the RunSolo sample
	size   int
	err    error
}

// tenant is the closed-loop client.
type tenant struct {
	hc    *http.Client
	base  string
	svc   *serve.Service
	order *rng.Source // shuffles each round's kinds, picks repeats
	seeds *rng.Source // fresh spec seeds
	fresh []serve.Spec
	fps   map[string]string // spec key -> fingerprint of its first report
}

// plan returns the round's session kinds in seeded order. The tenant's
// first session is always fresh so a repeat has something to repeat.
func (t *tenant) plan(m mix) []string {
	kinds := make([]string, 0, m.warm+m.cache)
	for i := 0; i < m.warm; i++ {
		kinds = append(kinds, kindWarm)
	}
	for i := 0; i < m.cache; i++ {
		kinds = append(kinds, kindCache)
	}
	t.order.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	if len(t.fresh) == 0 {
		for i, k := range kinds {
			if k == kindWarm {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
	}
	return kinds
}

func (t *tenant) specFor(kind string) serve.Spec {
	if kind == kindCache {
		n := min(len(t.fresh), repeatWindow)
		return t.fresh[len(t.fresh)-1-t.order.Intn(n)]
	}
	return serve.Spec{Kind: "workload", Seed: t.seeds.Uint64()}
}

// round runs the tenant's sessions of one round back to back.
func (t *tenant) round(r int, kinds []string, tr *tracer) []*sessionRec {
	recs := make([]*sessionRec, len(kinds))
	for i, k := range kinds {
		rec := &sessionRec{kind: k, spec: t.specFor(k)}
		sess := fmt.Sprintf("r%d-%d", r, i)
		root := tr.open("serve.session", sess, 0)
		rec.err = t.session(rec, tr, sess, root)
		tr.close(root)
		if rec.err == nil && k == kindWarm {
			t.fresh = append(t.fresh, rec.spec)
		}
		recs[i] = rec
	}
	return recs
}

// session drives one session through the HTTP API.
func (t *tenant) session(rec *sessionRec, tr *tracer, sess string, root int) error {
	spec, err := json.Marshal(rec.spec)
	if err != nil {
		return err
	}
	t0, c0 := time.Now(), cpuTime()
	var snap serve.Snapshot
	id := tr.open("http.submit", sess, root)
	err = t.do(http.MethodPost, "/v1/sessions", spec, http.StatusAccepted, func(body []byte) error {
		return json.Unmarshal(body, &snap)
	})
	tr.close(id)
	if err != nil {
		return err
	}
	t1 := time.Now()
	id = tr.open("http.events", sess, root)
	err = t.follow(snap.ID, rec)
	tr.close(id)
	if err != nil {
		return err
	}
	t2 := time.Now()
	id = tr.open("http.report", sess, root)
	err = t.do(http.MethodGet, "/v1/sessions/"+snap.ID+"/report", nil, http.StatusOK, func(body []byte) error {
		rec.body, rec.size = body, len(body)
		return json.Unmarshal(body, &rec.rep)
	})
	rec.rep.Ledger = nil // only the fingerprint and metrics are checked
	tr.close(id)
	if err != nil {
		return err
	}
	t3 := time.Now()
	rec.cpu = cpuTime() - c0
	rec.submit, rec.report, rec.total = t1.Sub(t0), t3.Sub(t2), t3.Sub(t0)
	if s, ok := t.svc.Session(snap.ID); ok {
		rec.execNs = s.LatencyNs()
	}
	return nil
}

// errRefused marks a submission the service shed with 429.
var errRefused = errors.New("refused: 429 Too Many Requests")

// do makes one request and hands the body of an expected-status
// response to decode.
func (t *tenant) do(method, path string, body []byte, want int, decode func([]byte) error) error {
	req, err := http.NewRequest(method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return errRefused
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return decode(data)
}

// follow reads the session's event stream to its terminal event.
func (t *tenant) follow(id string, rec *sessionRec) error {
	resp, err := t.hc.Get(t.base + "/v1/sessions/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		switch ev.State {
		case serve.StateRunning:
			if rec.path == "" {
				rec.path = ev.Note
			}
		case serve.StateDone, serve.StateFailed:
			rec.state = ev.State
			_, err := io.Copy(io.Discard, resp.Body) // let the connection be reused
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events of %s ended before the terminal event", id)
}

// roundsPerSecond sizes a daemon-mix run: a fixed number of rounds,
// two per second of --seconds, rather than as many as fit in the
// time. The service keeps every finished session, so its heap grows
// with the session count, and a fixed count keeps heap_peak_mb
// comparable between runs.
const roundsPerSecond = 2

// p99Window is the sessions per session_p99_ms window: ten rounds, so
// ten sessions of each window lie beyond its 99th percentile.
const p99Window = 1000

func runDaemon(cfg config) (*outcome, error) {
	o := &outcome{window: p99Window}
	start := time.Now()
	wall := func() time.Duration { return time.Since(start) }
	var d *daemon
	for i := 0; i < daemonSetups; i++ {
		runtime.GC() // each set-up starts from the same heap
		t0 := cpuTime()
		next, err := startDaemon(func() int64 { return int64(wall()) })
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, seconds(cpuTime()-t0))
		if d != nil {
			d.stop()
		}
		d = next
	}
	defer d.stop()

	transport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	m := mixFor(cfg.tiny)
	src := rng.New(cfg.seed).Split("daemon-mix/tenant")
	t := &tenant{
		hc:   &http.Client{Transport: transport, Timeout: 2 * time.Minute},
		base: d.base, svc: d.svc,
		order: src.Split("order"), seeds: src.Split("seeds"), fps: map[string]string{},
	}

	ph, err := startPhase(cfg, wall)
	if err != nil {
		return nil, err
	}
	before := d.svc.Stats(false)
	var (
		fig     sessionFigures
		first   [][]*sessionRec // rounds 0 and 1, kept for the fingerprint and the RunSolo sample
		gcAcc   gcSnap
		untrEvs float64 // engine events of the untraced rounds, for gc.*
	)
	rounds := max(2, int(cfg.budget.Seconds()*roundsPerSecond))
	err = repeat(cfg, rounds, func(r int, traced bool) error {
		tr := ph.tracerFor(traced)
		kinds := t.plan(m)
		gc0 := readGC()
		t0 := cpuTime()
		round := t.round(r, kinds, tr)
		host := cpuTime() - t0
		gc1 := readGC()

		for _, rec := range round {
			o.attempted++
			o.check(rec.err == nil, "%s session %s: %v", rec.kind, rec.spec.Key(), rec.err)
			if rec.err != nil {
				continue
			}
			o.check(rec.state == serve.StateDone, "%s session %s ended %s", rec.kind, rec.spec.Key(), rec.state)
			t.checkCache(o, rec)
			fig.add(rec)
			if !traced {
				o.sessions = append(o.sessions, seconds(rec.cpu))
				untrEvs += rec.events()
			}
		}
		if traced {
			o.traced = append(o.traced, seconds(host))
		} else {
			o.reps = append(o.reps, seconds(host))
			gcAcc = gcAcc.add(gc0, gc1)
		}
		if r < 2 {
			first = append(first, round)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ph.end(o); err != nil {
		return nil, err
	}
	after := d.svc.Stats(false)

	// The fingerprint folds the reports of rounds 0 and 1; round 1 is
	// traced in a traced run.
	h := fnv.New64a()
	for _, round := range first {
		for _, rec := range round {
			h.Write([]byte(rec.rep.Fingerprint))
		}
	}
	o.fingerprint = h.Sum64()
	checkSolo(o, first[0])

	l := &o.layers
	l.sim.nsPerEvent = ratio(fig.execNs, fig.events)
	l.gc = gcAcc.layer(untrEvs, len(o.reps))
	for _, rec := range first[0] {
		if rec.kind != kindWarm || rec.err != nil {
			continue
		}
		metric := func(name string) float64 { v, _ := rec.rep.Metric(name); return v }
		l.sim.events += metric("events")
		l.net.flowsCompleted += metric("flows_completed")
		l.net.bytesDelivered += metric("bytes_delivered")
		l.net.stalledSends += metric("stalled_sends")
		l.net.droppedFlows += metric("dropped_flows")
	}
	l.serve = fig.layer(before, after)
	fmt.Fprintf(cfg.log, "daemon-mix: %d sessions in %d rounds, %.1f sessions per CPU second untraced, cache hits %.3f, CPU p50 %.2fms p99 %.2fms, window p99s (s) %.4g, wall p50 %.2fms p99 %.2fms\n",
		fig.n, rounds, ratio(float64(len(o.sessions)), sum(o.reps)), l.serve.cacheHitFrac,
		1e3*median(o.sessions), 1e3*o.tail(), o.windowP99s(), l.serve.wallP50Ms, l.serve.wallP99Ms)
	return o, nil
}

// events is the engine events a fresh workload session fired.
func (rec *sessionRec) events() float64 {
	if rec.kind != kindWarm {
		return 0
	}
	v, _ := rec.rep.Metric("events")
	return v
}

// checkCache checks a session against the tenant's earlier reports: a
// repeat must be answered from the cache with the fingerprint the spec
// first produced, and a fresh session must not be a cache hit.
func (t *tenant) checkCache(o *outcome, rec *sessionRec) {
	s := rec.spec
	if err := s.Normalize(); err != nil {
		o.check(false, "spec %v: %v", rec.spec, err)
		return
	}
	key := s.Key()
	if rec.kind != kindCache {
		o.check(rec.path != kindCache, "fresh %s session %s was answered from the cache", rec.kind, key)
		t.fps[key] = rec.rep.Fingerprint
		return
	}
	o.check(rec.path == kindCache, "repeat of %s ran on the %q path, not from the cache", key, rec.path)
	o.check(rec.rep.Fingerprint == t.fps[key], "repeat of %s has fingerprint %s, first report had %s", key, rec.rep.Fingerprint, t.fps[key])
}

// checkSolo compares a deterministic sample of round 0's fresh reports,
// every soloEvery-th, byte for byte with serve.RunSolo. It runs after
// the timed phase.
func checkSolo(o *outcome, round []*sessionRec) {
	fresh := 0
	for _, rec := range round {
		if rec.err != nil || rec.kind != kindWarm {
			continue
		}
		if fresh++; (fresh-1)%soloEvery != 0 {
			continue
		}
		solo, err := serve.RunSolo(rec.spec, nil)
		if err != nil {
			o.check(false, "RunSolo %s: %v", rec.spec.Key(), err)
			continue
		}
		want, err := solo.JSON()
		if err != nil {
			o.check(false, "RunSolo %s: %v", rec.spec.Key(), err)
			continue
		}
		o.check(bytes.Equal(rec.body, want), "report of %s differs from serve.RunSolo's", rec.spec.Key())
	}
}

// sessionFigures accumulates the per-session serve.* figures.
type sessionFigures struct {
	execWarm, execCache, wall, wait, submit, report, size []float64
	n, hits                                               int
	execNs, events                                        float64 // warm sessions, for sim.ns_per_event
}

func (f *sessionFigures) add(rec *sessionRec) {
	f.n++
	switch rec.path {
	case kindWarm:
		f.execWarm = append(f.execWarm, float64(rec.execNs)/1e6)
		f.execNs += float64(rec.execNs)
		f.events += rec.events()
	case kindCache:
		f.execCache = append(f.execCache, float64(rec.execNs)/1e6)
		f.hits++
	}
	f.wall = append(f.wall, 1e3*seconds(rec.total))
	f.wait = append(f.wait, float64(rec.total.Nanoseconds()-rec.execNs)/1e6)
	f.submit = append(f.submit, 1e3*seconds(rec.submit))
	f.report = append(f.report, 1e3*seconds(rec.report))
	f.size = append(f.size, float64(rec.size))
}

// layer derives the serve.* figures, with the service counters over
// the timed phase.
func (f *sessionFigures) layer(before, after serve.Stats) serveLayer {
	reuses := float64(after.PoolReuses - before.PoolReuses)
	builds := float64(after.PoolBuilds - before.PoolBuilds)
	return serveLayer{
		wallP50Ms: median(f.wall), wallP99Ms: percentile(f.wall, 0.99),
		execWarmMs: median(f.execWarm), execCacheMs: median(f.execCache),
		waitMs: median(f.wait), submitMs: median(f.submit), reportMs: median(f.report), reportBytes: median(f.size),
		cacheHitFrac:  ratio(float64(f.hits), float64(f.n)),
		poolReuseFrac: ratio(reuses, reuses+builds),
		rejected:      float64(after.Rejected - before.Rejected),
	}
}

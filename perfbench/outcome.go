package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	// fingerprint folds the simulated end state (events fired, final
	// clock, layer counters). It must not depend on tracing.
	fingerprint uint64

	setup    []float64 // CPU seconds of each set-up repeat
	reps     []float64 // CPU seconds of each untraced repetition
	traced   []float64 // CPU seconds of each traced repetition
	sessions []float64 // CPU seconds of each untraced session: a batch repetition or an HTTP session
	window   int       // sessions per session_p99_ms window; 0 takes them all as one
	heapPeak uint64    // peak live heap bytes over the timed phase

	layers layerStats
}

// check counts a failed output check against the run.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) failedFrac() float64 { return ratio(float64(o.failed), float64(o.attempted)) }

// named is one metric value.
type named struct {
	name  string
	value float64
}

// endToEnd is what a user of the system sees. A session is one
// repetition on the batch workloads and one HTTP session on daemon-mix.
func (o *outcome) endToEnd() []named {
	return []named{
		{"setup_s", median(o.setup)},
		{"run_s", median(o.reps)},
		{"heap_peak_mb", float64(o.heapPeak) / 1e6},
		{"sessions_per_s", ratio(float64(len(o.sessions)), sum(o.reps))},
		{"session_p50_ms", 1e3 * median(o.sessions)},
		{"session_p99_ms", 1e3 * o.tail()},
	}
}

// tail is the median of windowP99s. A burst of load from outside the
// process moves the windows it falls in, not the median of all.
func (o *outcome) tail() float64 { return median(o.windowP99s()) }

// windowP99s is the 99th percentile of each consecutive window of
// o.window sessions.
func (o *outcome) windowP99s() []float64 {
	n := 1
	if o.window > 0 {
		n = max(1, len(o.sessions)/o.window)
	}
	p99s := make([]float64, n)
	for i := range p99s {
		p99s[i] = percentile(o.sessions[i*len(o.sessions)/n:(i+1)*len(o.sessions)/n], 0.99)
	}
	return p99s
}

// layerStats carries every per-layer figure. A workload leaves the
// fields of the layers it bypasses at zero.
type layerStats struct {
	sim     simLayer
	gc      gcLayer
	storage storageLayer
	net     netLayer
	serve   serveLayer
	cpu     [len(cpuBuckets)]float64 // share of CPU-profile samples per bucket
}

type simLayer struct {
	events      float64 // engine events per repetition
	nsPerEvent  float64
	simulatedS  float64 // simulated seconds per repetition
	pendingPeak float64 // event-heap high-water mark
}

type gcLayer struct {
	cpuFrac, allocBytesPerEvent, allocsPerEvent, cycles float64
}

type storageLayer struct {
	diskQueuePeak, ossQueuePeak, ctrlQueuePeak              float64
	diskOps, diskBytes, raidFullStripe, raidPartial         float64
	raidFullStripeFrac                                      float64
	clientRPCs, ossRPCs, ctrlCacheStalls, ostJournalCommits float64
	ckptSyntheticS, ckptS3DS, gainPctSynthetic, gainPctS3D  float64
}

type netLayer struct {
	placeS, buildS, startS, drainS, nsPerFlowEvent float64
	links, flowsCompleted, bytesDelivered          float64
	linkFlowsPeak, stalledSends, droppedFlows      float64
}

type serveLayer struct {
	wallP50Ms, wallP99Ms        float64
	execWarmMs, execCacheMs     float64
	waitMs, submitMs, reportMs  float64
	reportBytes                 float64
	cacheHitFrac, poolReuseFrac float64
	rejected                    float64
}

// perLayer names every per-layer figure. The names and their order
// match the per_layer list of BENCHMARK.json.
func (o *outcome) perLayer() []named {
	l := &o.layers
	s, st, n, sv := l.sim, l.storage, l.net, l.serve
	out := []named{
		{"sim.events", s.events},
		{"sim.ns_per_event", s.nsPerEvent},
		{"sim.simulated_s", s.simulatedS},
		{"sim.pending_peak", s.pendingPeak},
		{"gc.cpu_frac", l.gc.cpuFrac},
		{"gc.alloc_bytes_per_event", l.gc.allocBytesPerEvent},
		{"gc.allocs_per_event", l.gc.allocsPerEvent},
		{"gc.cycles", l.gc.cycles},
		{"disk.queue_peak", st.diskQueuePeak},
		{"lustre.oss_queue_peak", st.ossQueuePeak},
		{"lustre.ctrl_queue_peak", st.ctrlQueuePeak},
		{"disk.ops", st.diskOps},
		{"disk.bytes", st.diskBytes},
		{"raid.full_stripe_writes", st.raidFullStripe},
		{"raid.partial_writes", st.raidPartial},
		{"raid.full_stripe_frac", st.raidFullStripeFrac},
		{"lustre.client_rpcs", st.clientRPCs},
		{"lustre.oss_rpcs", st.ossRPCs},
		{"lustre.ctrl_cache_stalls", st.ctrlCacheStalls},
		{"lustre.ost_journal_commits", st.ostJournalCommits},
		{"ckpt.synthetic_s", st.ckptSyntheticS},
		{"ckpt.s3d_s", st.ckptS3DS},
		{"placement.gain_pct_synthetic", st.gainPctSynthetic},
		{"placement.gain_pct_s3d", st.gainPctS3D},
		{"topology.place_s", n.placeS},
		{"netsim.build_s", n.buildS},
		{"netsim.start_s", n.startS},
		{"netsim.drain_s", n.drainS},
		{"netsim.ns_per_flow_event", n.nsPerFlowEvent},
		{"netsim.links", n.links},
		{"netsim.flows_completed", n.flowsCompleted},
		{"netsim.bytes_delivered", n.bytesDelivered},
		{"netsim.link_flows_peak", n.linkFlowsPeak},
		{"netsim.stalled_sends", n.stalledSends},
		{"netsim.dropped_flows", n.droppedFlows},
		{"serve.wall_p50_ms", sv.wallP50Ms},
		{"serve.wall_p99_ms", sv.wallP99Ms},
		{"serve.exec_ms.warm", sv.execWarmMs},
		{"serve.exec_ms.cache", sv.execCacheMs},
		{"serve.wait_ms", sv.waitMs},
		{"serve.submit_ms", sv.submitMs},
		{"serve.report_ms", sv.reportMs},
		{"serve.report_bytes", sv.reportBytes},
		{"serve.cache_hit_frac", sv.cacheHitFrac},
		{"serve.pool_reuse_frac", sv.poolReuseFrac},
		{"serve.rejected", sv.rejected},
	}
	for i, b := range cpuBuckets {
		out = append(out, named{"cpu." + b + "_frac", l.cpu[i]})
	}
	// Tracing overhead: traced repetitions over untraced ones, minus 1.
	overhead := 0.0
	if len(o.traced) > 0 && len(o.reps) > 0 {
		overhead = median(o.traced)/median(o.reps) - 1
	}
	return append(out, named{"trace.overhead_frac", overhead})
}

// ---------------------------------------------------------------- statistics

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// cpuTime is the CPU time the process has used, user and system, over
// all its threads. It leaves out the time the hypervisor gave other
// guests, which on a shared host swings wall times by tens of percent,
// and it counts the collector's background work. Every end-to-end
// time of the benchmark is one of these.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fold writes words into a fingerprint hash.
func fold(h hash.Hash64, words ...uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

// ---------------------------------------------------------------- runtime meters

// gcSnap is a reading of the runtime's cumulative allocation and GC
// counters.
type gcSnap struct {
	allocBytes, allocObjects, cycles float64
	gcCPU, totalCPU                  float64
}

var gcMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSnap {
	samples := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return gcSnap{v(0), v(1), v(2), v(3), v(4)}
}

func (a gcSnap) add(before, after gcSnap) gcSnap {
	return gcSnap{
		a.allocBytes + after.allocBytes - before.allocBytes,
		a.allocObjects + after.allocObjects - before.allocObjects,
		a.cycles + after.cycles - before.cycles,
		a.gcCPU + after.gcCPU - before.gcCPU,
		a.totalCPU + after.totalCPU - before.totalCPU,
	}
}

// layer turns counters accumulated over reps repetitions, which fired
// events engine events in all, into the gc.* figures.
func (a gcSnap) layer(events float64, reps int) gcLayer {
	return gcLayer{
		cpuFrac:            ratio(a.gcCPU, a.totalCPU),
		allocBytesPerEvent: ratio(a.allocBytes, events),
		allocsPerEvent:     ratio(a.allocObjects, events),
		cycles:             ratio(a.cycles, float64(reps)),
	}
}

// heapWatch tracks the peak live heap: a finalizer, re-armed every GC
// cycle, reads the live-heap size the collector just marked.
type heapWatch struct {
	stopped atomic.Bool
	peak    atomic.Uint64
}

// gcSentinel is the object whose finalizer runs once per GC cycle. It
// holds a pointer so the tiny allocator (whose objects may never be
// finalized) does not place it.
type gcSentinel struct{ w *heapWatch }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w}, func(s *gcSentinel) {
		s.w.sample()
		if !s.w.stopped.Load() {
			s.w.arm()
		}
	})
}

// liveHeap is the heap the last GC cycle marked live, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (w *heapWatch) sample() {
	v := liveHeap()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch and returns the peak.
func (w *heapWatch) stop() uint64 {
	w.sample()
	w.stopped.Store(true)
	return w.peak.Load()
}

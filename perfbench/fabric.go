package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
)

// fabric-burst: full-machine checkpoint bursts on the Spider II fabric.
// Every Titan client sends one 32 MB fine-grained-routed flow to an
// OSS drawn from the seed, and the burst drains to quiescence. The cost
// is the fabric build, path computation and flow re-rating under heavy
// contention; no sim.Server, storage or service code runs.

const fabricSetups = 11 // set-up repeats behind setup_s

// fabricShape sizes the fabric and the burst.
type fabricShape struct {
	torus   topology.Torus
	grid    topology.CabinetGrid
	modules int // I/O modules (four LNET routers each)
	groups  int
	nOSS    int
	clients int
	bytes   float64
}

func fabricShapeFor(tiny bool) fabricShape {
	if tiny {
		// The service's small center: 5x4x4 torus, 16 modules, 16 OSSes.
		t := topology.Torus{NX: 5, NY: 4, NZ: 4}
		return fabricShape{t, topology.CabinetGrid{Cols: 5, Rows: 2}, 16, 4, 16, 2 * t.Nodes(), 32e6}
	}
	return fabricShape{netsim.Spider2Fabric().Torus, topology.TitanCabinets(), 110, 9, 288, 18688, 32e6}
}

// build places the routers and builds the fabric, timing each step in
// CPU time.
func (s fabricShape) build() (*sim.Engine, *netsim.Fabric, time.Duration, time.Duration) {
	cfg := netsim.Spider2Fabric()
	cfg.Torus = s.torus
	t0 := cpuTime()
	pl := topology.PlaceRouters(s.grid, s.torus, s.modules, s.groups)
	t1 := cpuTime()
	eng := sim.NewEngine()
	fab := netsim.NewFabric(eng, cfg, pl, s.nOSS)
	return eng, fab, t1 - t0, cpuTime() - t1
}

// pendingProbe records the event heap's high-water mark from the
// engine's trace hook.
type pendingProbe struct {
	eng  *sim.Engine
	peak int
}

func (p *pendingProbe) observe(sim.Time, uint64) { p.peak = max(p.peak, p.eng.Pending()) }

// burstEnd is the simulated end state of one burst.
type burstEnd struct {
	events, started, completed, stalled, dropped, active uint64
	clock                                                sim.Time
	delivered                                            float64
	linkFlowsPeak                                        int
}

func (b burstEnd) fingerprint() uint64 {
	h := fnv.New64a()
	fold(h, b.events, uint64(b.clock), b.started, b.completed, math.Float64bits(b.delivered),
		b.stalled, b.dropped, uint64(b.linkFlowsPeak))
	return h.Sum64()
}

func runFabric(cfg config) (*outcome, error) {
	shape := fabricShapeFor(cfg.tiny)
	o := &outcome{}
	var (
		eng                 *sim.Engine
		fab                 *netsim.Fabric
		placeS, buildS      []float64
		untracedNs, drainNs []float64
		gcAcc               gcSnap
		first               burstEnd
		probe               pendingProbe
		tracedReps          int
	)
	for i := 0; i < fabricSetups; i++ {
		eng, fab = nil, nil
		runtime.GC() // each set-up starts from the same heap, without the last fabric
		var place, build time.Duration
		eng, fab, place, build = shape.build()
		placeS = append(placeS, seconds(place))
		buildS = append(buildS, seconds(build))
		o.setup = append(o.setup, seconds(place+build))
	}

	// The burst's inputs: one destination OSS per client, and the seed
	// of the routing stream, identical for every repetition.
	dest := make([]int, shape.clients)
	src := rng.New(cfg.seed).Split("fabric-burst/oss")
	for i := range dest {
		dest[i] = src.Intn(shape.nOSS)
	}
	nodes := shape.torus.Nodes()
	// reset returns the fabric to its just-built state through the
	// warm-pool seams, so every burst starts from the same fabric.
	reset := func() error {
		eng.Reset()
		return fab.Reset()
	}
	start := func(tr *tracer, sess string, root int) {
		route := rng.New(cfg.seed).Split("fabric-burst/route")
		for c, oss := range dest {
			id := tr.open("netsim.StartClientFlow", sess, root)
			fab.StartClientFlow(shape.torus.CoordOf(c%nodes), oss, netsim.RouteFGR, shape.bytes, route, nil)
			tr.close(id)
		}
	}

	// An untimed warm-up burst, collected while every flow is in
	// flight: the timed bursts cannot stop for a collection at their
	// peak without changing what they measure, and a collection may
	// not otherwise happen to fall there.
	if err := reset(); err != nil {
		return nil, err
	}
	start(nil, "", 0)
	runtime.GC()
	burstPeak := liveHeap()
	eng.Run()

	ph, err := startPhase(cfg, cpuTime)
	if err != nil {
		return nil, err
	}
	err = repeat(cfg, 0, func(i int, traced bool) error {
		if err := reset(); err != nil {
			return err
		}
		tr := ph.tracerFor(traced)
		if traced {
			tracedReps++
			probe.eng = eng
			eng.SetTrace(probe.observe)
		}
		sess := fmt.Sprintf("burst-%d", i)
		before := readGC()
		t0 := cpuTime()
		root := tr.open("fabric.burst", sess, 0)
		start(tr, sess, root)
		t1 := cpuTime()
		tr.call("sim.Run", sess, root, eng.Run)
		tr.close(root)
		t2 := cpuTime()
		after := readGC()
		o.attempted++

		end := burstEnd{
			events: eng.Fired(), clock: eng.Now(),
			started: fab.Net.FlowsStarted, completed: fab.Net.FlowsCompleted,
			delivered: fab.Net.BytesDelivered, stalled: fab.StalledSends,
			dropped: fab.DroppedFlows, active: uint64(fab.Net.ActiveFlows()),
		}
		for _, l := range fab.Net.Links() {
			end.linkFlowsPeak = max(end.linkFlowsPeak, l.MaxFlows)
		}
		fp := end.fingerprint()
		if i == 0 {
			first, o.fingerprint = end, fp
		}
		o.check(fp == o.fingerprint, "burst %d fingerprint %016x differs from burst 0's %016x", i, fp, o.fingerprint)
		want := uint64(shape.clients)
		o.check(end.started == want && end.completed == want && end.active == 0,
			"burst %d: %d flows started, %d completed, %d active; want %d, %d, 0", i, end.started, end.completed, end.active, want, want)
		o.check(end.delivered == float64(shape.clients)*shape.bytes,
			"burst %d delivered %.0f bytes, want %.0f", i, end.delivered, float64(shape.clients)*shape.bytes)
		o.check(end.stalled == 0 && end.dropped == 0, "burst %d: %d stalled sends, %d dropped flows", i, end.stalled, end.dropped)

		if traced {
			o.traced = append(o.traced, seconds(t2-t0))
		} else {
			o.reps = append(o.reps, seconds(t2-t0))
			o.sessions = append(o.sessions, seconds(t2-t0))
			untracedNs = append(untracedNs, float64(t2-t0))
			drainNs = append(drainNs, float64(t2-t1))
			gcAcc = gcAcc.add(before, after)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ph.end(o); err != nil {
		return nil, err
	}
	o.heapPeak = max(o.heapPeak, burstPeak)

	events := float64(first.events)
	l := &o.layers
	l.sim = simLayer{
		events: events, nsPerEvent: ratio(median(untracedNs), events),
		simulatedS: first.clock.Seconds(), pendingPeak: float64(probe.peak),
	}
	l.gc = gcAcc.layer(events*float64(len(o.reps)), len(o.reps))
	l.net = netLayer{
		placeS: median(placeS), buildS: median(buildS),
		startS:         ratio(seconds(ph.tr.total("netsim.StartClientFlow")), float64(tracedReps)),
		drainS:         ratio(seconds(ph.tr.total("sim.Run")), float64(tracedReps)),
		nsPerFlowEvent: ratio(median(drainNs), events),
		links:          float64(len(fab.Net.Links())),
		flowsCompleted: float64(first.completed), bytesDelivered: first.delivered,
		linkFlowsPeak: float64(first.linkFlowsPeak),
		stalledSends:  float64(first.stalled), droppedFlows: float64(first.dropped),
	}
	fmt.Fprintf(cfg.log, "fabric-burst: %d links, %d flows per burst, %d events, %.3fs simulated; %d untraced bursts, median %.3fs\n",
		len(fab.Net.Links()), first.completed, first.events, first.clock.Seconds(), len(o.reps), median(o.reps))
	return o, nil
}

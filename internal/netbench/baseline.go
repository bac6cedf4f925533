// Package netbench benchmarks netsim's flow solver against a frozen
// copy of the map-based implementation it replaced, and drives a
// Spider II-sized fabric (18,688 clients, 440 LNET routers, 288 OSSes)
// through a congestion-heavy workload to record ns/flow-event at
// production scale. Command benchsuite -suite netsim runs the suite and
// emits BENCH_netsim.json.
package netbench

import (
	"spiderfs/internal/sim"
)

// The types below are the pre-refactor netsim algorithm, kept verbatim
// in miniature: per-link flow membership in a map[*mapFlow]struct{}, an
// affected-set map allocated on every start and finish, reassignment by
// map iteration, and cancel+reschedule of the completion event even
// when the fair-share rate did not change. It exists only so the suite
// can measure the ordered registries against the exact bookkeeping they
// replaced, on identical workloads.

type mapLink struct {
	cap     float64
	latency sim.Time
	flows   map[*mapFlow]struct{}
}

type mapFlow struct {
	path       []*mapLink
	size       float64
	remaining  float64
	rate       float64
	lastUpdate sim.Time
	completion *sim.Event
	done       func()
}

type mapNetwork struct {
	eng            *sim.Engine
	flowsStarted   uint64
	flowsCompleted uint64
}

func newMapNetwork(eng *sim.Engine) *mapNetwork { return &mapNetwork{eng: eng} }

func (n *mapNetwork) newLink(capBps float64, latency sim.Time) *mapLink {
	return &mapLink{cap: capBps, latency: latency, flows: map[*mapFlow]struct{}{}}
}

func (n *mapNetwork) start(path []*mapLink, size float64, done func()) *mapFlow {
	n.flowsStarted++
	f := &mapFlow{path: path, size: size, remaining: size,
		lastUpdate: n.eng.Now(), done: done}
	if len(path) == 0 {
		n.eng.After(0, func() { n.finish(f) })
		return f
	}
	var latency sim.Time
	for _, l := range path {
		l.flows[f] = struct{}{}
		latency += l.latency
	}
	f.lastUpdate = n.eng.Now() + latency
	n.reassign(n.affected(f))
	return f
}

// affected allocates a fresh set on every call — the per-event garbage
// the ordered implementation's epoch stamps eliminate.
func (n *mapNetwork) affected(f *mapFlow) map[*mapFlow]struct{} {
	set := map[*mapFlow]struct{}{f: {}}
	for _, l := range f.path {
		for g := range l.flows {
			set[g] = struct{}{}
		}
	}
	return set
}

func (n *mapNetwork) advance(f *mapFlow) {
	now := n.eng.Now()
	dt := now - f.lastUpdate
	if dt > 0 && f.rate > 0 {
		moved := f.rate * dt.Seconds()
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
	}
	if now > f.lastUpdate {
		f.lastUpdate = now
	}
}

// reassign iterates the affected set in Go map order — the scheduling
// nondeterminism the ordered registries fix — and unconditionally
// cancels and reschedules every completion event.
func (n *mapNetwork) reassign(flows map[*mapFlow]struct{}) {
	for f := range flows { //simlint:allow ordered-map-range deliberately frozen nondeterministic baseline the ordered registries are measured against
		n.advance(f)
		rate := -1.0
		for _, l := range f.path {
			share := l.cap / float64(len(l.flows))
			if rate < 0 || share < rate {
				rate = share
			}
		}
		if rate < 0 {
			rate = 0
		}
		f.rate = rate
		f.completion.Cancel()
		f.completion = nil
		if rate <= 0 {
			continue
		}
		dur := sim.FromSeconds(f.remaining / rate)
		start := f.lastUpdate
		if start < n.eng.Now() {
			start = n.eng.Now()
		}
		at := start + dur
		if at < n.eng.Now() {
			at = n.eng.Now()
		}
		ff := f
		f.completion = n.eng.At(at, func() { n.finish(ff) })
	}
}

func (n *mapNetwork) finish(f *mapFlow) {
	n.advance(f)
	f.remaining = 0
	aff := n.affected(f)
	delete(aff, f)
	for _, l := range f.path {
		delete(l.flows, f)
	}
	f.rate = 0
	f.completion = nil
	n.flowsCompleted++
	n.reassign(aff)
	if f.done != nil {
		f.done()
	}
}

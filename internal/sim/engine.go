package sim

import (
	"fmt"
	"math"
)

// Event is a scheduled callback. The zero Event is invalid; events are
// created by Engine.At and Engine.After. An event is pending exactly
// while it sits in its engine's heap: firing, Cancel and Engine.Reset
// all take it out.
type Event struct {
	t   Time
	seq uint64
	fn  func()
	eng *Engine
	idx int // position in the heap; -1 once fired, canceled or reset
}

// Time returns when the event is (or was) scheduled to fire.
func (e *Event) Time() Time { return e.t }

// Cancel prevents the event from firing, removing it from the heap in
// O(log n). Canceling an already-fired or already-canceled event is a
// no-op. Cancel reports whether the event was still pending.
func (e *Event) Cancel() bool {
	if !e.Pending() {
		return false
	}
	e.eng.remove(e.idx)
	e.fn = nil
	return true
}

// Pending reports whether the event is still waiting to fire.
func (e *Event) Pending() bool { return e != nil && e.idx >= 0 }

// Engine is a discrete-event simulation executive. Events scheduled for
// the same instant fire in scheduling order (FIFO tie-break), which makes
// runs deterministic — provided model code schedules events in a
// deterministic order (in particular, never from Go map iteration; see
// the determinism contract in DESIGN.md).
//
// Engine is not safe for concurrent use; all model code must run on the
// goroutine driving Run/Step. Parallel harnesses (internal/sweep) give
// each worker its own engine and never share one across goroutines.
type Engine struct {
	now      Time
	seq      uint64
	heap     []*Event // binary min-heap on (t, seq)
	executed uint64
	stopped  bool
	trace    func(at Time, seq uint64)
}

// SetTrace installs a hook that observes every fired event (its
// timestamp and scheduling sequence number) just before the callback
// runs. Two runs of the same model are bit-identical exactly when their
// traces are: the sequence number captures scheduling order, so any
// map-ordered or otherwise nondeterministic scheduling shows up as a
// trace divergence even when the fire times happen to agree. Pass nil
// to remove the hook.
func (e *Engine) SetTrace(fn func(at Time, seq uint64)) { e.trace = fn }

// Hasher is an incremental 64-bit FNV-1a hash. Words and floats are
// folded as their eight little-endian bytes, text as its raw bytes with
// no length prefix, so a fold equals hash/fnv's New64a over the same
// byte stream. The event-trace, campaign, sweep and session
// fingerprints are all built on it.
type Hasher uint64

// NewHasher returns an empty hash (the FNV-1a offset basis).
func NewHasher() Hasher { return 14695981039346656037 }

// Word folds v's eight little-endian bytes.
func (h *Hasher) Word(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= Hasher((v >> (8 * i)) & 0xff)
		*h *= 1099511628211
	}
}

// Float folds v's IEEE-754 bit pattern.
func (h *Hasher) Float(v float64) { h.Word(math.Float64bits(v)) }

// Text folds the bytes of s.
func (h *Hasher) Text(s string) {
	for i := 0; i < len(s); i++ {
		*h ^= Hasher(s[i])
		*h *= 1099511628211
	}
}

// Sum returns the hash of everything folded so far.
func (h Hasher) Sum() uint64 { return uint64(h) }

// TraceHash folds an event trace into one comparable fingerprint
// (a Hasher over the (time, seq) stream). Feed Observe to SetTrace and
// compare Sum values across runs to audit determinism.
type TraceHash struct {
	h      Hasher
	events uint64
}

// NewTraceHash returns an empty trace fingerprint.
func NewTraceHash() *TraceHash { return &TraceHash{h: NewHasher()} }

// Observe folds one fired event into the fingerprint.
func (t *TraceHash) Observe(at Time, seq uint64) {
	t.events++
	t.h.Word(uint64(at))
	t.h.Word(seq)
}

// Sum returns the fingerprint of everything observed so far.
func (t *TraceHash) Sum() uint64 { return t.h.Sum() }

// Events returns how many fired events were observed.
func (t *TraceHash) Events() uint64 { return t.events }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.executed }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

func (e *Engine) less(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

func (e *Engine) swap(i, j int) {
	h := e.heap
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (e *Engine) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !e.less(j, i) {
			return
		}
		e.swap(i, j)
		j = i
	}
}

// down sifts the event at i toward the leaves and reports whether it
// moved.
func (e *Engine) down(i int) bool {
	i0, n := i, len(e.heap)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && e.less(r, j) {
			j = r
		}
		if !e.less(j, i) {
			break
		}
		e.swap(i, j)
		i = j
	}
	return i > i0
}

// fix restores heap order after the key of the event at i changed.
func (e *Engine) fix(i int) {
	if !e.down(i) {
		e.up(i)
	}
}

// remove takes the event at heap position i out of the heap.
func (e *Engine) remove(i int) *Event {
	n := len(e.heap) - 1
	ev := e.heap[i]
	e.swap(i, n)
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if i < n {
		e.fix(i)
	}
	ev.idx = -1
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now)) //simlint:allow no-library-panic causality assertion: scheduling into the past is a model bug
	}
	ev := &Event{t: t, seq: e.seq, fn: fn, eng: e, idx: len(e.heap)}
	e.seq++
	e.heap = append(e.heap, ev)
	e.up(ev.idx)
	return ev
}

// Reschedule moves a still-pending event to absolute time t, reusing
// its allocation and callback. The event receives a fresh sequence
// number, so FIFO tie-breaking behaves exactly as if the event had been
// canceled and newly scheduled — but without allocating a replacement.
// It reports whether the move happened; a fired or canceled event is
// left untouched (schedule a new one instead). Like At, moving an event
// into the past panics.
func (e *Engine) Reschedule(ev *Event, t Time) bool {
	if !ev.Pending() {
		return false
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", t, e.now)) //simlint:allow no-library-panic causality assertion: scheduling into the past is a model bug
	}
	ev.t = t
	ev.seq = e.seq
	e.seq++
	e.fix(ev.idx)
	return true
}

// After schedules fn to run d after the current time. Negative d is
// treated as zero.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop makes the current Run/RunUntil return after the in-flight event
// completes. Pending events remain scheduled.
//
// Stop is sticky: the flag stays set until ClearStop is called, so a
// Stop issued between runs (e.g. by a controller driving the engine in
// RunUntil windows) makes the next Run/RunUntil return
// immediately instead of being silently lost. Resuming therefore takes
// an explicit ClearStop followed by Run/RunUntil.
func (e *Engine) Stop() { e.stopped = true }

// ClearStop re-arms the engine after a Stop. It is the only way the
// stopped flag is cleared; Run and RunUntil never reset it themselves.
func (e *Engine) ClearStop() { e.stopped = false }

// Stopped reports whether Stop has been called without a matching
// ClearStop. While true, Run and RunUntil return without firing events.
func (e *Engine) Stopped() bool { return e.stopped }

// Step executes the single next event, advancing the clock to its
// timestamp. It reports whether an event was executed (false when the
// queue is empty). Step ignores the stopped flag; it fires exactly one
// event regardless.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.remove(0)
	e.now = ev.t
	fn := ev.fn
	ev.fn = nil
	e.executed++
	if e.trace != nil {
		e.trace(ev.t, ev.seq)
	}
	fn()
	return true
}

// Run executes events until the queue is empty or Stop is called. If the
// engine is already stopped (a sticky Stop not yet cleared), Run returns
// immediately without firing anything.
func (e *Engine) Run() {
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t. When the loop drains
// normally the clock then advances to t (even if the queue emptied
// earlier); when a Stop fires mid-run the clock stays at the last fired
// event, so unprocessed events are never left stranded behind the clock
// and a later resume continues exactly where the run halted.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped {
		if len(e.heap) == 0 || e.heap[0].t > t {
			// Drained normally: the window is fully processed.
			if e.now < t {
				e.now = t
			}
			return
		}
		e.Step()
	}
}

// RunFor runs the simulation for a duration d of simulated time.
// Negative d is treated as zero, and a horizon that would overflow the
// clock saturates at MaxTime instead of wrapping behind it (a wrapped
// horizon would strand every pending event "in the future" of a
// negative deadline and silently run nothing).
func (e *Engine) RunFor(d Time) {
	if d < 0 {
		d = 0
	}
	t := e.now + d
	if t < e.now { // overflow: saturate at the end of representable time
		t = MaxTime
	}
	e.RunUntil(t)
}

// Reset returns the engine to its just-constructed state: the clock at
// zero, no scheduled events, counters cleared, the sticky stop flag
// re-armed, and any trace hook removed. This is the warm-pool seam
// (internal/serve): a model stack built on a reset engine must
// reproduce a fresh engine's event-trace fingerprint bit for bit,
// because nothing — sequence numbers included — survives.
//
// Events still in the heap leave it with their callbacks dropped, so a
// stale *Event held by old model code is permanently non-pending and
// its Cancel a no-op.
func (e *Engine) Reset() {
	for i, ev := range e.heap {
		ev.idx = -1
		ev.fn = nil
		e.heap[i] = nil
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.seq = 0
	e.executed = 0
	e.stopped = false
	e.trace = nil
}

// NextEventTime returns the timestamp of the next pending event and true,
// or zero and false if the queue is empty.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].t, true
}

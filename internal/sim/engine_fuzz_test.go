package sim

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzEngineOps drives an Engine and a naive sorted-slice model of it
// with the same operation stream and checks, after every operation,
// that both fired the same (time, seq) events, returned the same
// Cancel/Reschedule results, and agree on Now, Pending, Fired, Stopped,
// NextEventTime and each handle's Pending.
//
// Each operation takes two bytes: an opcode and an argument. Events
// scheduled by At/After carry a callback action drawn from the argument
// (nothing, Cancel or Reschedule another handle, schedule a child,
// Stop), so the engine is also mutated from inside firing callbacks.
// The seed corpus is testdata/fuzz/FuzzEngineOps.
func FuzzEngineOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		checkEngineOps(t, data)
	})
}

// action is what an event's callback does when it fires.
type action struct {
	kind   byte // 0 none, 1 cancel, 2 reschedule, 3 schedule a child, 4 stop
	target byte // handle index, taken modulo the handle count at fire time
	d      Time // reschedule or child delay
}

func actionOf(arg byte) action {
	return action{kind: (arg >> 4) % 5, target: arg, d: Time(arg & 7)}
}

// opRecord is one observable effect: a fired event or the result of a
// Cancel or Reschedule.
type opRecord struct {
	kind string
	t    Time
	seq  uint64
	ok   bool
}

type modelEvent struct {
	id  int
	t   Time
	seq uint64
}

// engineModel is the reference: pending events in a slice kept sorted
// by (t, seq), everything else in plain fields.
type engineModel struct {
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
	pending []modelEvent
	acts    []action // per handle id
	log     []opRecord
}

func (m *engineModel) find(id int) int {
	for i, ev := range m.pending {
		if ev.id == id {
			return i
		}
	}
	return -1
}

func (m *engineModel) insert(ev modelEvent) {
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.t > ev.t || (p.t == ev.t && p.seq > ev.seq)
	})
	m.pending = append(m.pending, modelEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

func (m *engineModel) at(t Time, act action) {
	m.acts = append(m.acts, act)
	m.insert(modelEvent{id: len(m.acts) - 1, t: t, seq: m.seq})
	m.seq++
}

func (m *engineModel) cancel(id int) {
	i := m.find(id)
	if i >= 0 {
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
	}
	m.log = append(m.log, opRecord{kind: "cancel", ok: i >= 0})
}

func (m *engineModel) reschedule(id int, t Time) {
	i := m.find(id)
	if i >= 0 {
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
		m.insert(modelEvent{id: id, t: t, seq: m.seq})
		m.seq++
	}
	m.log = append(m.log, opRecord{kind: "reschedule", ok: i >= 0})
}

func (m *engineModel) runUntil(t Time) {
	for !m.stopped {
		if len(m.pending) == 0 || m.pending[0].t > t {
			if m.now < t {
				m.now = t
			}
			return
		}
		ev := m.pending[0]
		m.pending = m.pending[1:]
		m.now = ev.t
		m.fired++
		m.log = append(m.log, opRecord{kind: "fire", t: ev.t, seq: ev.seq})
		switch a := m.acts[ev.id]; a.kind {
		case 1:
			m.cancel(int(a.target) % len(m.acts))
		case 2:
			m.reschedule(int(a.target)%len(m.acts), m.now+a.d)
		case 3:
			m.at(m.now+a.d, action{})
		case 4:
			m.stopped = true
		}
	}
}

func (m *engineModel) reset() {
	m.now, m.seq, m.fired, m.stopped = 0, 0, 0, false
	m.pending = m.pending[:0]
}

// engineHarness is the real engine plus its handles, with callbacks
// that perform the same actions as the model and log their effects.
type engineHarness struct {
	e    *Engine
	evs  []*Event
	acts []action
	log  []opRecord
}

func (h *engineHarness) trace() {
	h.e.SetTrace(func(at Time, seq uint64) {
		h.log = append(h.log, opRecord{kind: "fire", t: at, seq: seq})
	})
}

func (h *engineHarness) at(t Time, act action) {
	id := len(h.evs)
	h.acts = append(h.acts, act)
	h.evs = append(h.evs, h.e.At(t, func() { h.fire(id) }))
}

func (h *engineHarness) after(d Time, act action) {
	id := len(h.evs)
	h.acts = append(h.acts, act)
	h.evs = append(h.evs, h.e.After(d, func() { h.fire(id) }))
}

func (h *engineHarness) fire(id int) {
	e := h.e
	switch a := h.acts[id]; a.kind {
	case 1:
		h.cancel(int(a.target) % len(h.evs))
	case 2:
		h.reschedule(int(a.target)%len(h.evs), e.Now()+a.d)
	case 3:
		h.at(e.Now()+a.d, action{})
	case 4:
		e.Stop()
	}
}

func (h *engineHarness) cancel(id int) {
	h.log = append(h.log, opRecord{kind: "cancel", ok: h.evs[id].Cancel()})
}

func (h *engineHarness) reschedule(id int, t Time) {
	h.log = append(h.log, opRecord{kind: "reschedule", ok: h.e.Reschedule(h.evs[id], t)})
}

func checkEngineOps(t *testing.T, data []byte) {
	h := &engineHarness{e: NewEngine()}
	h.trace()
	m := &engineModel{}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%8, data[i+1]
		var desc string
		switch op {
		case 0:
			desc = fmt.Sprintf("At(now+%d)", arg%16)
			h.at(h.e.Now()+Time(arg%16), actionOf(arg))
			m.at(m.now+Time(arg%16), actionOf(arg))
		case 1:
			d := Time(arg%16) - 4 // the engine clamps negative delays to zero
			desc = fmt.Sprintf("After(%d)", d)
			h.after(d, actionOf(arg))
			m.at(m.now+max(d, 0), actionOf(arg))
		case 2:
			if len(h.evs) == 0 {
				continue
			}
			id := int(arg) % len(h.evs)
			desc = fmt.Sprintf("Cancel(#%d)", id)
			h.cancel(id)
			m.cancel(id)
		case 3:
			if len(h.evs) == 0 {
				continue
			}
			id, d := int(arg)%len(h.evs), Time(arg>>4)
			desc = fmt.Sprintf("Reschedule(#%d, now+%d)", id, d)
			h.reschedule(id, h.e.Now()+d)
			m.reschedule(id, m.now+d)
		case 4:
			desc = fmt.Sprintf("RunUntil(now+%d)", arg%32)
			h.e.RunUntil(h.e.Now() + Time(arg%32))
			m.runUntil(m.now + Time(arg%32))
		case 5:
			desc = "Stop"
			h.e.Stop()
			m.stopped = true
		case 6:
			desc = "ClearStop"
			h.e.ClearStop()
			m.stopped = false
		case 7:
			desc = "Reset"
			h.e.Reset()
			h.trace()
			m.reset()
		}
		compareEngine(t, i/2, desc, h, m)
	}
	// Drain whatever is left so every scheduled event is checked.
	for h.e.Pending() > 0 || len(m.pending) > 0 {
		h.e.ClearStop()
		m.stopped = false
		h.e.RunUntil(MaxTime)
		m.runUntil(MaxTime)
		compareEngine(t, len(data)/2, "drain", h, m)
	}
}

func compareEngine(t *testing.T, step int, desc string, h *engineHarness, m *engineModel) {
	t.Helper()
	e := h.e
	if len(h.log) != len(m.log) {
		t.Fatalf("op %d %s: engine logged %v, model %v", step, desc, h.log, m.log)
	}
	for i := range h.log {
		if h.log[i] != m.log[i] {
			t.Fatalf("op %d %s: record %d engine %+v, model %+v", step, desc, i, h.log[i], m.log[i])
		}
	}
	if e.Now() != m.now || e.Pending() != len(m.pending) || e.Fired() != m.fired || e.Stopped() != m.stopped {
		t.Fatalf("op %d %s: engine now=%v pending=%d fired=%d stopped=%v, model now=%v pending=%d fired=%d stopped=%v",
			step, desc, e.Now(), e.Pending(), e.Fired(), e.Stopped(), m.now, len(m.pending), m.fired, m.stopped)
	}
	next, ok := e.NextEventTime()
	if ok != (len(m.pending) > 0) || ok && next != m.pending[0].t {
		t.Fatalf("op %d %s: NextEventTime = %v,%v, model %v", step, desc, next, ok, m.pending)
	}
	pending := make([]bool, len(h.evs))
	for _, ev := range m.pending {
		pending[ev.id] = true
	}
	for id, ev := range h.evs {
		if ev.Pending() != pending[id] {
			t.Fatalf("op %d %s: handle #%d Pending = %v, model %v", step, desc, id, ev.Pending(), pending[id])
		}
	}
}

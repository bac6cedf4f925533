package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// session (a repetition, or one daemon session) share Session; Parent
// is the ID of the enclosing span, 0 at a root. Start and end are on
// the run's clock: process CPU time on the batch workloads, wall time
// on daemon-mix, whose spans wait on the service's goroutines.
type span struct {
	Name    string `json:"name"`
	Session string `json:"session"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced repetitions run the same code.
type tracer struct {
	mu    sync.Mutex // guards spans
	clock func() time.Duration
	spans []span
}

// open starts a span and returns its ID.
func (t *tracer) open(name, session string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(t.clock())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Session: session, ID: id, Parent: parent, StartNs: now})
	return id
}

// close ends the span open returned.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(t.clock())
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// call records fn as one span.
func (t *tracer) call(name, session string, parent int, fn func()) {
	id := t.open(name, session, parent)
	fn()
	t.close(id)
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.EndNs - s.StartNs
		}
	}
	return time.Duration(d)
}

// selfTimes is each span name's self time: its spans' durations minus
// the time their child spans cover, largest first.
func (t *tracer) selfTimes() []named {
	if t == nil {
		return nil
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent > 0 {
			self[s.Parent-1] -= s.EndNs - s.StartNs
		}
	}
	var out []named
	index := map[string]int{}
	for i, s := range t.spans {
		j, ok := index[s.Name]
		if !ok {
			j = len(out)
			index[s.Name] = j
			out = append(out, named{name: s.Name})
		}
		out[j].value += float64(self[i]) / 1e9
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].value > out[b].value })
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// phase brackets a timed phase: it watches the live heap and, in a
// traced run, records spans and profiles the CPU.
type phase struct {
	cfg  config
	heap *heapWatch
	tr   *tracer // nil in an untraced run
	prof bytes.Buffer
}

// startPhase starts the timed phase; clock times its spans.
func startPhase(cfg config, clock func() time.Duration) (*phase, error) {
	runtime.GC()
	p := &phase{cfg: cfg, heap: watchHeap()}
	if cfg.traced {
		p.tr = &tracer{clock: clock}
		if err := pprof.StartCPUProfile(&p.prof); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// tracerFor returns the tracer for a repetition: the run's tracer when
// the repetition is traced, nil otherwise.
func (p *phase) tracerFor(traced bool) *tracer {
	if traced {
		return p.tr
	}
	return nil
}

// end closes the phase: the heap peak and, when traced, the CPU shares
// go into o, and the spans and profile are written out.
func (p *phase) end(o *outcome) error {
	o.heapPeak = p.heap.stop()
	if p.tr == nil {
		return nil
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(p.prof.Bytes())
	if err != nil {
		return fmt.Errorf("reading the CPU profile: %w", err)
	}
	o.layers.cpu = shares
	w := bufio.NewWriter(p.cfg.log)
	fmt.Fprintln(w, "self time by span (s):")
	for i, s := range p.tr.selfTimes() {
		if i == 12 {
			break
		}
		fmt.Fprintf(w, "  %-28s %10.4f\n", s.name, s.value)
	}
	fmt.Fprint(w, "cpu shares:")
	for i, b := range cpuBuckets {
		fmt.Fprintf(w, " %s=%.3f", b, shares[i])
	}
	fmt.Fprintln(w)
	if err := w.Flush(); err != nil {
		return err
	}
	if err := os.WriteFile(outFile(p.cfg, "cpu.pprof"), p.prof.Bytes(), 0o644); err != nil {
		return err
	}
	return p.tr.write(outFile(p.cfg, "spans.jsonl"))
}

// repeat runs the timed phase's repetitions, rep(i, traced): n of
// them, or with n = 0 at least two and then more while another of the
// mean length so far still fits the budget. A collection runs before
// each, so one repetition's garbage is not charged to the next. In a
// traced run the odd repetitions are traced and the even ones are not,
// so the two interleave and their medians give the overhead.
func repeat(cfg config, n int, rep func(i int, traced bool) error) error {
	start := time.Now() // --seconds bounds wall time
	fits := func(i int) bool {
		spent := time.Since(start)
		return spent+spent/time.Duration(i) <= cfg.budget
	}
	for i := 0; i < n || (n == 0 && (i < 2 || fits(i))); i++ {
		runtime.GC()
		if err := rep(i, cfg.traced && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

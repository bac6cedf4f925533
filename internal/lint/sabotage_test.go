package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The PR 2 regression, reconstructed in memory: a tracker that
// schedules completion events straight out of a Go map range. Same
// model, same seed — but the engine sees a different scheduling order
// every run, so traces diverge. simlint must refuse it.
const sabotageSrc = `package sabotage

import "spiderfs/internal/sim"

type Tracker struct {
	eng     *sim.Engine
	pending map[string]sim.Time
}

func (t *Tracker) ScheduleCompletions(done func(string)) {
	for name, at := range t.pending {
		n := name
		t.eng.At(at, func() { done(n) })
	}
}
`

// The ordered-registry rewrite PR 2 shipped: an insertion-ordered
// slice is the scheduling source; the map (if any) is only a lookup
// index. Zero diagnostics.
const orderedSrc = `package sabotage

import "spiderfs/internal/sim"

type item struct {
	name string
	at   sim.Time
}

type Tracker struct {
	eng   *sim.Engine
	order []item            // insertion-ordered registry drives scheduling
	index map[string]int    // lookup only, never ranged
}

func (t *Tracker) ScheduleCompletions(done func(string)) {
	for _, it := range t.order {
		n := it.name
		t.eng.At(it.at, func() { done(n) })
	}
}
`

// TestSabotageMapRangeScheduling mirrors the PR 2 sabotage-validation
// pattern: the map-range version of the completion scheduler must trip
// ordered-map-range, and the ordered-registry rewrite must be clean —
// so reverting that fix can never land silently again.
func TestSabotageMapRangeScheduling(t *testing.T) {
	m := loadRepo(t)

	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"sabotage.go": sabotageSrc,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}
	diags := m.RunPackage(pkg, Checks())
	if len(diags) != 1 {
		t.Fatalf("sabotage package: got %d diagnostics %v, want exactly 1", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "ordered-map-range" {
		t.Fatalf("check = %s, want ordered-map-range", d.Check)
	}
	if !strings.Contains(d.Message, "schedules engine events") {
		t.Fatalf("message should name the scheduling hazard: %q", d.Message)
	}

	fixed, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"ordered.go": orderedSrc,
	})
	if err != nil {
		t.Fatalf("TypecheckSource(fixed): %v", err)
	}
	if diags := m.RunPackage(fixed, Checks()); len(diags) != 0 {
		t.Fatalf("ordered rewrite should be clean, got %v", diags)
	}
}

// TestSabotageTransitivePath is the whole-program upgrade's sharpest
// regression: a map range three calls from the scheduler, with the
// diagnostic spelling the full chain. The one-hop analyzer this
// replaced was provably blind here.
func TestSabotageTransitivePath(t *testing.T) {
	m := loadRepo(t)
	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"deep.go": `package sabotage

import "spiderfs/internal/sim"

type entry struct{ at sim.Time }

func arm(eng *sim.Engine, e entry)   { eng.At(e.at, func() {}) }
func relay(eng *sim.Engine, e entry) { arm(eng, e) }
func stage(eng *sim.Engine, e entry) { relay(eng, e) }

func drain(eng *sim.Engine, pending map[string]sim.Time) {
	for _, at := range pending {
		stage(eng, entry{at: at})
	}
}
`,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}
	diags := m.RunPackage(pkg, []*Check{checkOrderedMapRange})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly 1", len(diags), diags)
	}
	msg := diags[0].Message
	for _, want := range []string{"schedules engine events", "drain → stage → relay → arm → sim.Engine.At"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

// TestSabotageCallbackHandOff pins the calleeOf fix: a hazardous method
// handed off as a method value (never called directly) still taints the
// handing function.
func TestSabotageCallbackHandOff(t *testing.T) {
	m := loadRepo(t)
	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"handoff.go": `package sabotage

import "spiderfs/internal/sim"

type trig struct{ eng *sim.Engine }

func (t *trig) fire(at sim.Time) { t.eng.At(at, func() {}) }

func each(ats []sim.Time, f func(sim.Time)) {
	for _, at := range ats {
		f(at)
	}
}

func (t *trig) flush(pending map[string]sim.Time) {
	for _, at := range pending {
		each([]sim.Time{at}, t.fire)
	}
}
`,
	})
	if err != nil {
		t.Fatalf("TypecheckSource: %v", err)
	}
	diags := m.RunPackage(pkg, []*Check{checkOrderedMapRange})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want exactly 1 (the handed-off callback must be an edge)", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "flush → fire → sim.Engine.At") {
		t.Errorf("diagnostic %q should spell the hand-off path", diags[0].Message)
	}
}

// TestSabotageShardIsolation seeds a captured cross-worker write into an
// in-memory copy of the real internal/sweep sources and asserts
// shard-isolation refuses it — so the replica pool's own-slot
// discipline cannot be bypassed silently, even by code living inside
// the package.
func TestSabotageShardIsolation(t *testing.T) {
	m := loadRepo(t)
	files := map[string]string{}
	for _, name := range []string{"sweep.go", "merge.go", "suite.go"} {
		src, err := os.ReadFile(filepath.Join("../sweep", name))
		if err != nil {
			t.Fatalf("reading real sweep source: %v", err)
		}
		files[name] = string(src)
	}

	// The unmodified copy must be clean: the real pool writes only
	// out[i] with a worker-claimed i.
	clean, err := m.TypecheckSource("spiderfs/internal/sweep", files)
	if err != nil {
		t.Fatalf("TypecheckSource(clean): %v", err)
	}
	if diags := m.RunPackage(clean, []*Check{checkShardIsolation}); len(diags) != 0 {
		t.Fatalf("pristine internal/sweep copy should be clean, got %v", diags)
	}

	// Sabotage: a replica error tally accumulated straight across worker
	// goroutines — completion-order state the own-slot pool forbids.
	files["sabotage.go"] = `package sweep

import "sync"

func racyErrorTally(reps []Replica) int {
	var total int
	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func(r Replica) {
			defer wg.Done()
			if r.Err != "" {
				total++
			}
		}(r)
	}
	wg.Wait()
	return total
}
`
	sab, err := m.TypecheckSource("spiderfs/internal/sweep", files)
	if err != nil {
		t.Fatalf("TypecheckSource(sabotage): %v", err)
	}
	diags := m.RunPackage(sab, []*Check{checkShardIsolation})
	if len(diags) != 1 {
		t.Fatalf("seeded cross-worker write: got %d diagnostics %v, want exactly 1", len(diags), diags)
	}
	d := diags[0]
	if d.Check != "shard-isolation" || d.File != "sabotage.go" {
		t.Fatalf("diagnostic %v should be shard-isolation in sabotage.go", d)
	}
	if !strings.Contains(d.Message, "total") || !strings.Contains(d.Message, "own slot") {
		t.Errorf("message %q should name the captured target and point at the own-slot rule", d.Message)
	}
}

// TestSabotageSingleCheckSelection proves checks run independently: the
// same sabotage source is silent when only an unrelated check runs.
func TestSabotageSingleCheckSelection(t *testing.T) {
	m := loadRepo(t)
	pkg, err := m.TypecheckSource("spiderfs/internal/sabotage", map[string]string{
		"sabotage.go": sabotageSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if diags := m.RunPackage(pkg, []*Check{checkNoWallclock}); len(diags) != 0 {
		t.Fatalf("no-wallclock alone should be silent here, got %v", diags)
	}
	if diags := m.RunPackage(pkg, []*Check{checkOrderedMapRange}); len(diags) != 1 {
		t.Fatalf("ordered-map-range alone should fire once, got %v", diags)
	}
}

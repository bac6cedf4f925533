package benchsuite

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"

	"spiderfs/internal/chaos"
	"spiderfs/internal/ledger"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/sweep"
)

// ledgerTamper is one adversarial case applied to the campaign export:
// Detected records whether the auditor flagged it, Class the first
// finding's class, and Epoch the offending epoch it identified.
type ledgerTamper struct {
	Name     string
	Detected bool
	Class    string
	Epoch    int
}

// batchSweepEntries is the synthetic stream length for the batch-size
// sweep; at one entry per simulated second it spans a bit over two
// epoch hours, so every MaxBatch point also crosses an epoch boundary.
const batchSweepEntries = 8192

// RunLedgerSuite builds the BENCH_ledger.json records: the quick chaos
// campaign's anchored root sequence (double-run and traced-vs-untraced
// identical, exact-gated), the auditor's adversarial scorecard, and the
// anchoring batch-size sweep. The batch sweep appends a fixed synthetic
// stream (one entry per simulated second, the density of a busy
// campaign's monitor bursts) under each MaxBatch setting; its counts
// and heads are exact-gated, its throughput recorded. clock supplies
// monotonic wall nanoseconds for the throughput (nil records zeros),
// exactly like sweep.RunSuite.
func RunLedgerSuite(seed uint64, clock sweep.Clock) ([]regress.Record, error) {
	now := func() int64 { return 0 }
	if clock != nil {
		now = clock
	}

	// Campaign identity: double run, then a traced run.
	r1 := chaos.Run(chaos.QuickConfig(seed))
	r2 := chaos.Run(chaos.QuickConfig(seed))
	b1, err := json.Marshal(r1.Ops)
	if err != nil {
		return nil, fmt.Errorf("ledger suite: marshal export: %w", err)
	}
	b2, err := json.Marshal(r2.Ops)
	if err != nil {
		return nil, fmt.Errorf("ledger suite: marshal export: %w", err)
	}
	traced := chaos.QuickConfig(seed)
	traced.Tracer = spantrace.New(rng.New(seed^0x7ed9), 4)
	r3 := chaos.Run(traced)
	tracedIdentical := r3.LedgerHead == r1.LedgerHead && slices.Equal(r3.LedgerRoots, r1.LedgerRoots)

	recs := []regress.Record{
		{Name: "ledger/cpus", Value: float64(runtime.GOMAXPROCS(0)), Unit: "count", Gate: regress.Recorded},
		{Name: "ledger/seed", Value: float64(seed), Gate: regress.Recorded},
		{Name: "ledger/deterministic", Value: regress.Bool(bytes.Equal(b1, b2)), Gate: regress.Min, Bound: 1},
		{Name: "ledger/traced_identical", Value: regress.Bool(tracedIdentical), Gate: regress.Min, Bound: 1},
		{Name: "ledger/audit_clean", Value: regress.Bool(len(ledger.Audit(r1.Ops)) == 0), Gate: regress.Min, Bound: 1},
		{Name: "ledger/entries", Value: float64(r1.LedgerEntries), Unit: "count", Gate: regress.Exact},
		{Name: "ledger/anchors", Value: float64(r1.LedgerAnchors), Unit: "count", Gate: regress.Exact},
		{Name: "ledger/drops", Value: float64(r1.LedgerDrops), Unit: "count", Gate: regress.Exact},
		{Name: "ledger/head", Text: r1.LedgerHead, Gate: regress.Exact},
		{Name: "ledger/roots", Value: float64(len(r1.LedgerRoots)), Unit: "count", Gate: regress.Exact},
	}
	for i, root := range r1.LedgerRoots {
		recs = append(recs, regress.Record{Name: fmt.Sprintf("ledger/root/%03d", i), Text: root, Gate: regress.Exact})
	}

	// Adversarial coverage: every tamper class must be detected, and the
	// scorecard may not shrink.
	tampers := runTampers(r1.Ops)
	undetected := 0
	for _, t := range tampers {
		if !t.Detected {
			undetected++
		}
		p := "ledger/tamper/" + t.Name + "/"
		recs = append(recs,
			regress.Record{Name: p + "detected", Value: regress.Bool(t.Detected), Gate: regress.Min, Bound: 1},
			regress.Record{Name: p + "class", Text: t.Class, Gate: regress.Recorded},
			regress.Record{Name: p + "epoch", Value: float64(t.Epoch), Gate: regress.Recorded})
	}
	n := float64(len(tampers))
	recs = append(recs,
		regress.Record{Name: "ledger/tampers", Value: n, Unit: "count", Gate: regress.Min, Bound: n},
		regress.Record{Name: "ledger/tampers/undetected", Value: float64(undetected), Unit: "count", Gate: regress.Max})

	for _, maxBatch := range []int{64, 256, 1024, 4096} {
		l := ledger.New(ledger.Config{Epoch: sim.Hour, MaxBatch: maxBatch})
		t0 := now()
		for i := 0; i < batchSweepEntries; i++ {
			if err := l.Append(sim.Time(i)*sim.Second,
				fmt.Sprintf("oss%03d", i%97), "hardware", "synthetic-event", ""); err != nil {
				return nil, fmt.Errorf("ledger suite: batch %d: %w", maxBatch, err)
			}
		}
		l.Close()
		dt := now() - t0
		rate := 0.0
		if dt > 0 {
			rate = float64(l.Len()) / (float64(dt) / 1e9)
		}
		p := fmt.Sprintf("ledger/batch/%d/", maxBatch)
		recs = append(recs,
			regress.Record{Name: p + "entries", Value: float64(l.Len()), Unit: "count", Gate: regress.Exact},
			regress.Record{Name: p + "anchors", Value: float64(l.AnchorCount()), Unit: "count", Gate: regress.Exact},
			regress.Record{Name: p + "head", Text: l.Head(), Gate: regress.Exact},
			regress.Record{Name: p + "append_ns", Value: float64(dt), Unit: "ns", Gate: regress.Recorded},
			regress.Record{Name: p + "entries_per_sec", Value: rate, Unit: "1/s", Gate: regress.Recorded})
	}
	return recs, nil
}

// runTampers applies one instance of each tamper class the issue's
// threat model names to copies of the campaign export and records
// whether AuditAgainst (with the honest roots as trusted memory)
// detects it. The forged-suffix case goes through the public Resume
// API: the attacker's rewritten tail is internally consistent — every
// hash recomputed — and only the trusted root sequence exposes it.
func runTampers(exp *ledger.Export) []ledgerTamper {
	trusted := exp.RootRefs()
	verdict := func(name string, t *ledger.Export) ledgerTamper {
		fs := ledger.AuditAgainst(t, trusted)
		out := ledgerTamper{Name: name, Detected: len(fs) > 0, Epoch: -1}
		if len(fs) > 0 {
			out.Class = fs[0].Class
			out.Epoch = fs[0].Epoch
		}
		return out
	}
	var out []ledgerTamper
	mid := len(exp.Entries) / 2

	t := cloneExport(exp)
	t.Entries[mid].Action += "x" // single payload mutation
	out = append(out, verdict("entry-mutation", t))

	t = cloneExport(exp)
	t.Entries = append(t.Entries[:mid:mid], t.Entries[mid+1:]...)
	out = append(out, verdict("entry-deletion", t))

	// Truncate at an anchor boundary and regress the head — internally
	// consistent, caught only against trusted roots.
	cut := len(exp.Anchors) / 2
	t = cloneExport(exp)
	a := t.Anchors[cut-1]
	t.Entries = t.Entries[:a.FirstSeq+uint64(a.Entries)]
	t.Anchors = t.Anchors[:cut]
	t.Head = a.Hash
	out = append(out, verdict("chain-truncation", t))

	t = cloneExport(exp)
	t.Anchors[0], t.Anchors[1] = t.Anchors[1], t.Anchors[0]
	out = append(out, verdict("batch-reorder", t))

	// Forged suffix: rewrite history after the cut with an all-quiet
	// narrative, every hash internally consistent via Resume.
	t = cloneExport(exp)
	t.Entries = t.Entries[:a.FirstSeq+uint64(a.Entries)]
	t.Anchors = t.Anchors[:cut]
	t.Head = a.Hash
	forged, err := ledger.Resume(t)
	if err != nil {
		out = append(out, ledgerTamper{Name: "forged-suffix", Detected: false, Epoch: -1,
			Class: "resume-failed: " + err.Error()})
		return out
	}
	last := t.Entries[len(t.Entries)-1].At
	for i := 0; i < 3; i++ {
		_ = forged.Append(last+sim.Time(i+1)*sim.Hour, "fleet", "operator", "all-quiet", "")
	}
	forged.Close()
	out = append(out, verdict("forged-suffix", forged.Export()))
	return out
}

func cloneExport(exp *ledger.Export) *ledger.Export {
	c := *exp
	c.Entries = append([]ledger.Entry(nil), exp.Entries...)
	c.Anchors = append([]ledger.Anchor(nil), exp.Anchors...)
	return &c
}

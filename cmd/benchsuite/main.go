// Command benchsuite runs the acquisition benchmark suite (§III-B):
// the full parameter-space sweep at block level and file-system level,
// and the derived software-overhead table.
//
// With -suite it instead runs one of the bench suites behind the
// committed BENCH_*.json artifacts, prints its records and, with -out,
// writes the artifact (the checked-in files are produced by
// `go run ./cmd/benchsuite -suite <name> -out BENCH_<name>.json`):
//
//	netsim     flow solver: ordered registries vs the frozen map
//	           baseline, plus a Spider II-scale congestion run (18,688
//	           clients, 440 LNET routers, 288 OSSes) in ns/flow-event
//	spantrace  tracing observer cost: the same congestion workload
//	           untraced vs 1-in-64 sampled (ceiling 5% wall clock)
//	sweep      the standard seed sweeps (E3 slow-disk, E13 purge
//	           residency, E18 chaos), each double-run serially and on a
//	           -workers-wide pool
//	integrity  the E19 scrub-interval sweep (off, default, slow); zero
//	           undetected corrupt reads at the default interval
//	serve      the session service on its cold, warm-pool and cache-hit
//	           paths, with a cold-vs-warm fingerprint cross-check
//	ledger     the quick campaign's anchored Merkle roots, the
//	           auditor's tamper scorecard and an anchoring batch sweep
//
// Every artifact has one record shape, and each record carries its
// gate (see internal/regress): deterministic values are exact or
// bounded, wall-clock figures recorded only. A sweep, integrity, serve
// or ledger run whose records fail their own absolute bounds exits 1
// without writing; netsim and spantrace, whose bounds include
// wall-clock floors and ceilings, print such findings as warnings and
// write anyway.
//
// With -check it is the bench-regression gate: each committed
// BENCH_*.json in -bench-dir is compared against its freshly generated
// counterpart in -fresh, and any gate finding exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/disk"
	"spiderfs/internal/lustre"
	"spiderfs/internal/netbench"
	"spiderfs/internal/raid"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/serve"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
)

func wallNs() int64 { return time.Now().UnixNano() }

// suites maps each -suite name to its generator and artifact file, in
// the order -check reports them. A timed suite gates wall-clock
// figures (netsim's speedup floor, spantrace's 5% overhead ceiling),
// which a single run on a loaded host can miss by noise alone.
var suites = []struct {
	name, file string
	timed      bool
	run        func(seed uint64, workers int) ([]regress.Record, error)
}{
	{"netsim", "BENCH_netsim.json", true, func(uint64, int) ([]regress.Record, error) {
		return netbench.Run(true), nil
	}},
	{"spantrace", "BENCH_spantrace.json", true, func(uint64, int) ([]regress.Record, error) {
		return netbench.RunSpans(true), nil
	}},
	{"sweep", "BENCH_sweep.json", false, func(seed uint64, workers int) ([]regress.Record, error) {
		return sweep.RunSuite("sweep", benchsuite.SweepEntries(seed), workers, wallNs)
	}},
	{"integrity", "BENCH_integrity.json", false, func(seed uint64, workers int) ([]regress.Record, error) {
		return benchsuite.RunIntegritySuite(seed, workers, wallNs)
	}},
	{"serve", "BENCH_serve.json", false, func(uint64, int) ([]regress.Record, error) {
		return serve.RunBench(wallNs), nil
	}},
	{"ledger", "BENCH_ledger.json", false, func(seed uint64, _ int) ([]regress.Record, error) {
		return benchsuite.RunLedgerSuite(seed, wallNs)
	}},
}

func main() {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	cellSec := flag.Float64("cell", 1.0, "seconds per sweep cell (simulated)")
	seed := flag.Uint64("seed", 42, "random seed")
	suite := flag.String("suite", "", "run this bench suite instead of the acquisition sweep: "+strings.Join(names, "|"))
	workers := flag.Int("workers", 0, "with -suite sweep|integrity, parallel worker count (0 = GOMAXPROCS)")
	check := flag.Bool("check", false, "regression gate: compare committed BENCH_*.json against -fresh copies")
	benchDir := flag.String("bench-dir", ".", "with -check, directory holding the committed BENCH_*.json files")
	freshDir := flag.String("fresh", "", "with -check, directory holding freshly generated BENCH_*.json files")
	out := flag.String("out", "", "with -suite, write the artifact to this file")
	flag.Parse()

	if *check {
		runCheck(*benchDir, *freshDir)
		return
	}
	if *suite != "" {
		runSuite(*suite, *seed, *workers, *out)
		return
	}

	acq := benchsuite.DefaultSweep()
	acq.CellDuration = sim.FromSeconds(*cellSec)

	eng := sim.NewEngine()
	src := rng.New(*seed)
	g := raid.BuildGroups(eng, 1, raid.Spider2Group(), disk.NLSAS2TB(),
		disk.DefaultPopulation(), src.Split("grp"))[0]
	fmt.Println("== block level (fair-lio over one RAID-6 8+2 LUN) ==")
	block := benchsuite.RunBlockLevel(eng, g, acq, src.Split("blk"))
	fmt.Print(benchsuite.Render(block))

	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(*seed+1))
	fmt.Println("\n== file system level (obdfilter-style over the OST stack) ==")
	fsCells := benchsuite.RunFSLevel(fs, acq, src.Split("fs"))
	fmt.Print(benchsuite.Render(fsCells))

	fmt.Println("\n== software overhead (1 - fs/block) ==")
	fmt.Printf("%-24s %12s %12s %10s\n", "cell", "block MB/s", "fs MB/s", "overhead")
	for _, o := range benchsuite.CompareLevels(block, fsCells) {
		fmt.Printf("%-24s %12.1f %12.1f %9.1f%%\n", o.Cell, o.BlockMBps, o.FSMBps, o.Frac*100)
	}
}

// runSuite is the one write path: run the named suite, print its
// records, check them against their own absolute bounds (comparing the
// artifact with itself checks exactly those), and write the artifact
// to out when set. A failing deterministic suite is refused; a timed
// suite's findings are printed and the artifact still written, so a
// noisy run never blocks regeneration and -check against the written
// copy reports the same findings.
func runSuite(name string, seed uint64, workers int, out string) {
	for _, s := range suites {
		if s.name != name {
			continue
		}
		recs, err := s.run(seed, workers)
		if err != nil {
			fail(err)
		}
		fmt.Print(regress.Render(recs))
		data, err := regress.Encode(recs)
		if err != nil {
			fail(err)
		}
		findings, err := regress.Compare(s.file, data, data)
		if err != nil {
			fail(err)
		}
		verdict := "FAIL"
		if s.timed {
			verdict = "WARN"
		}
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s %s\n", verdict, f)
		}
		if len(findings) > 0 && !s.timed {
			fail(fmt.Errorf("%s suite failed its own gates", name))
		}
		if out == "" {
			return
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", out)
		return
	}
	fmt.Fprintf(os.Stderr, "benchsuite: unknown -suite %q\n", name)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchsuite:", err)
	os.Exit(1)
}

// runCheck is the regression gate. Every known artifact present in
// freshDir is compared against the committed copy in benchDir; any
// finding exits 1. A fresh artifact with no committed baseline, or a
// missing freshDir, is a hard error — the gate must never pass
// vacuously by mistake.
func runCheck(benchDir, freshDir string) {
	if freshDir == "" {
		fmt.Fprintln(os.Stderr, "benchsuite: -check requires -fresh <dir>")
		os.Exit(2)
	}
	checked := 0
	failed := false
	for _, s := range suites {
		name := s.file
		fresh, err := os.ReadFile(filepath.Join(freshDir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(2)
		}
		committed, err := os.ReadFile(filepath.Join(benchDir, name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite: fresh artifact has no committed baseline:", err)
			os.Exit(2)
		}
		findings, err := regress.Compare(name, committed, fresh)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(2)
		}
		checked++
		if len(findings) == 0 {
			fmt.Printf("ok   %s\n", name)
			continue
		}
		failed = true
		for _, f := range findings {
			fmt.Printf("FAIL %s\n", f)
		}
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: no known BENCH_*.json artifacts found in %s\n", freshDir)
		os.Exit(2)
	}
	if failed {
		fmt.Println("bench regression gate: FAIL")
		os.Exit(1)
	}
	fmt.Printf("bench regression gate: ok (%d artifacts)\n", checked)
}

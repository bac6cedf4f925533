package experiments

// Ablations of the design choices and direct-funded Lustre features
// DESIGN.md calls out: the §IV-D product extensions (high-performance
// journaling, imperative recovery, asymmetric router notification), the
// DNE metadata recommendation, and the best practices of §VII.

import (
	"fmt"

	"spiderfs/internal/lustre"
	"spiderfs/internal/netsim"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/stats"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

// streamWrite writes total bytes in xfer-sized requests to a fresh file
// of the given stripe count and returns the sustained MB/s, drain
// included.
func streamWrite(eng *sim.Engine, fs *lustre.FS, path string, stripes int, total, xfer int64) float64 {
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.Create(path, stripes, func(f *lustre.File) { file = f })
	eng.Run()
	start := eng.Now()
	client.WriteStream(file, total, xfer, nil)
	eng.Run()
	return float64(total) / (eng.Now() - start).Seconds() / 1e6
}

func journalThroughput(seed uint64, mode lustre.JournalMode) float64 {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	for _, ost := range fs.OSTs {
		ost.Journal = mode
	}
	return streamWrite(eng, fs, "j/data", 4, 128<<20, 1<<20)
}

func a1(seed uint64) Result {
	hp, sync := journalThroughput(seed, lustre.HPJournal), journalThroughput(seed, lustre.SyncJournal)
	return Result{
		Table: fmt.Sprintf("sustained write: sync journal %.0f MB/s -> async (funded) %.0f MB/s = %.2fx\n",
			sync, hp, hp/sync),
		Metrics: []regress.Record{metric("hp_over_sync", "x", hp/sync)},
	}
}

func recoveryStall(seed uint64, imperative bool) sim.Time {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var file *lustre.File
	fs.CreateOn("app/out", []int{0}, func(f *lustre.File) { file = f })
	eng.Run()
	// OSS 0 exists and is up on a freshly built namespace, so FailOSS
	// cannot fail here.
	_ = lustre.FailOSS(fs, 0, lustre.DefaultRecovery(imperative), nil)
	start := eng.Now()
	var doneAt sim.Time
	client.WriteStream(file, 8<<20, 1<<20, func(int64) { doneAt = eng.Now() })
	eng.Run()
	return doneAt - start
}

func a2(seed uint64) Result {
	without, with := recoveryStall(seed, false), recoveryStall(seed, true)
	return Result{
		Table: fmt.Sprintf("application stall across an OSS failover: %v without IR -> %v with IR (%.1fx shorter)\n",
			without, with, float64(without)/float64(with)),
		Metrics: []regress.Record{metric("stall_reduction", "x", float64(without)/float64(with))},
	}
}

func arnCompletion(seed uint64, arn bool) (sim.Time, uint64) {
	eng := sim.NewEngine()
	cfg := netsim.Spider2Fabric()
	cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
	pl := topology.PlaceRouters(topology.CabinetGrid{Cols: 5, Rows: 2}, cfg.Torus, 16, 4)
	f := netsim.NewFabric(eng, cfg, pl, 32)
	f.SetNotification(arn)
	src := rng.New(seed)
	// A router dies mid-operation; 24 transfers follow.
	f.FailRouter(0)
	for i := 0; i < 24; i++ {
		c := cfg.Torus.CoordOf((i * 11) % cfg.Torus.Nodes())
		f.StartClientFlow(c, i%32, netsim.RouteFGR, 2e8, src, nil)
	}
	eng.Run()
	return eng.Now(), f.StalledSends
}

func a3(seed uint64) Result {
	withoutT, withoutS := arnCompletion(seed, false)
	withT, withS := arnCompletion(seed, true)
	return Result{
		Table: fmt.Sprintf("24 transfers with a dead router: without ARN %v (%d senders stalled on LNET timeouts) -> with ARN %v (%d stalls)\n",
			withoutT, withoutS, withT, withS),
		Metrics: []regress.Record{
			metric("completion_speedup", "x", float64(withoutT)/float64(withT)),
			metric("arn_stalled_sends", "sends", float64(withS)),
		},
	}
}

func dneStorm(seed uint64, mdts int) sim.Time {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	if mdts > 1 {
		fs.EnableDNE(mdts, lustre.Spider2MDS())
	}
	start := eng.Now()
	issued := 0
	var worker func()
	worker = func() {
		if issued >= 4000 {
			return
		}
		i := issued
		issued++
		fs.Create(fmt.Sprintf("dir%03d/f%06d", i%64, i), 1, func(*lustre.File) { worker() })
	}
	for w := 0; w < 64; w++ {
		worker()
	}
	eng.Run()
	return eng.Now() - start
}

func a4(seed uint64) Result {
	t1, t4 := dneStorm(seed, 1), dneStorm(seed, 4)
	return Result{
		Table: fmt.Sprintf("4,000 creates: 1 MDT %v -> 4 MDTs %v (%.1fx); the paper recommends DNE + multiple namespaces together\n",
			t1, t4, float64(t1)/float64(t4)),
		Metrics: []regress.Record{metric("dne_speedup", "x", float64(t1)/float64(t4))},
	}
}

func statStorm(seed uint64, stripes int) sim.Time {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.MDSCfg.Stat = sim.Microsecond // expose the OSS glimpse cost
	p.OSSCfg.Cores = 1
	fs := lustre.Build(eng, p, rng.New(seed))
	var file *lustre.File
	fs.Create("small/f", stripes, func(f *lustre.File) { file = f })
	eng.Run()
	start := eng.Now()
	for i := 0; i < 2000; i++ {
		fs.Stat(file, nil)
	}
	eng.Run()
	return eng.Now() - start
}

func a5(seed uint64) Result {
	s1, s4 := statStorm(seed, 1), statStorm(seed, 4)
	return Result{
		Table: fmt.Sprintf("2,000 stats: stripe-1 %v vs stripe-4 %v (%.1fx) — why the paper says to keep small files at stripe count 1\n",
			s1, s4, float64(s4)/float64(s1)),
		Metrics: []regress.Record{metric("stripe4_over_stripe1", "x", float64(s4)/float64(s1))},
	}
}

func alignedWrite(seed uint64, xfer int64) float64 {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	return streamWrite(eng, fs, "align/f", 1, 64<<20, xfer)
}

func a6(seed uint64) Result {
	aligned := alignedWrite(seed, 1<<20)
	small := alignedWrite(seed, 68<<10) // unaligned 68 KiB requests
	return Result{
		Table: fmt.Sprintf("64 MiB stream: 1 MiB aligned RPCs %.0f MB/s vs 68 KiB RPCs %.0f MB/s (%.1fx)\n",
			aligned, small, aligned/small),
		Metrics: []regress.Record{metric("aligned_gain", "x", aligned/small)},
	}
}

func compileProbe(seed uint64, withCompile bool) sim.Time {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	if withCompile {
		workload.RunCompile(fs, workload.CompileConfig{
			SourceFiles: 3000, StatsPerFile: 8, Parallelism: 32,
		}, nil)
	}
	var mean sim.Time
	workload.MetadataLatencyProbe(fs, "user/data", 50, func(m sim.Time) { mean = m })
	eng.Run()
	return mean
}

func a7(seed uint64) Result {
	quiet, busy := compileProbe(seed, false), compileProbe(seed, true)
	return Result{
		Table: fmt.Sprintf("another user's mean stat latency: %v quiet -> %v during a make -j32 (%.0fx) — why the paper tells users not to compile on Lustre\n",
			quiet, busy, float64(busy)/float64(quiet)),
		Metrics: []regress.Record{metric("latency_inflation", "x", float64(busy)/float64(quiet))},
	}
}

// staggerP95 runs two periodic checkpointers on one namespace, the
// second offset by the given phase, and returns the p95 dump time.
func staggerP95(seed uint64, offset sim.Time) float64 {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.CtrlCfg.Bps = 2.5e9
	p.CtrlCfg.Slots = 8
	fs := lustre.Build(eng, p, rng.New(seed))
	var durations []float64
	app := func(id int, start sim.Time) {
		client := lustre.NewClient(id, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		period := 2 * sim.Second
		fs.Create(fmt.Sprintf("app%d/ckpt", id), 4, func(file *lustre.File) {
			var dump func(n int)
			dump = func(n int) {
				if n == 0 {
					return
				}
				t0 := eng.Now()
				client.WriteStream(file, 96<<20, 1<<20, func(int64) {
					durations = append(durations, (eng.Now() - t0).Seconds())
					eng.After(period, func() { dump(n - 1) })
				})
			}
			if eng.Now() >= start {
				dump(5)
			} else {
				eng.At(start, func() { dump(5) })
			}
		})
	}
	app(0, 0)
	app(1, offset)
	eng.Run()
	return stats.Percentile(durations, 0.95)
}

func a8(seed uint64) Result {
	aligned, staggered := staggerP95(seed, 0), staggerP95(seed, sim.Second)
	return Result{
		Table: fmt.Sprintf("two periodic checkpointers on one namespace, p95 dump time: aligned %.3fs -> signature-staggered %.3fs (%.1fx)\n",
			aligned, staggered, aligned/staggered),
		Metrics: []regress.Record{metric("stagger_gain", "x", aligned/staggered)},
	}
}

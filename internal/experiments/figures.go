package experiments

import (
	"fmt"

	"spiderfs/internal/benchsuite"
	"spiderfs/internal/center"
	"spiderfs/internal/disk"
	"spiderfs/internal/failure"
	"spiderfs/internal/integrity"
	"spiderfs/internal/iosi"
	"spiderfs/internal/lustre"
	"spiderfs/internal/monitor"
	"spiderfs/internal/netsim"
	"spiderfs/internal/placement"
	"spiderfs/internal/procure"
	"spiderfs/internal/provision"
	"spiderfs/internal/purge"
	"spiderfs/internal/qa"
	"spiderfs/internal/raid"
	"spiderfs/internal/regress"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/spantrace"
	"spiderfs/internal/stats"
	"spiderfs/internal/tools"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

// fig2 ignores its seed: router placement is deterministic.
func fig2(uint64) Result {
	p := topology.PlaceRouters(topology.TitanCabinets(), topology.TitanTorus(), 110, 9)
	spread := p.MeanClientRouterDistance(false)
	zoned := p.MeanClientRouterDistance(true)
	clumped := p
	clumped.Modules = append([]topology.IOModule(nil), p.Modules...)
	for j := range clumped.Modules {
		clumped.Modules[j].Coord = topology.Coord{X: 0, Y: 0, Z: j % 24}
	}
	clumpedD := clumped.MeanClientRouterDistance(false)
	return Result{
		Table: p.RenderXYMap() +
			fmt.Sprintf("mean client->router hops: %.2f spread / %.2f FGR-zoned / %.2f clumped\n",
				spread, zoned, clumpedD),
		Metrics: []regress.Record{
			metric("spread_hops", "hops", spread),
			metric("zoned_hops", "hops", zoned),
			metric("clumped_over_spread", "x", clumpedD/spread),
		},
	}
}

// iorSweep runs one IOR point per config on a fresh miniature center,
// the i-th seeded seed+i.
func iorSweep(seed uint64, cfgs []workload.IORConfig) []workload.IORResult {
	out := make([]workload.IORResult, 0, len(cfgs))
	for i, cfg := range cfgs {
		c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed + uint64(i)})
		out = append(out, c.RunIOR(0, cfg))
	}
	return out
}

func fig3(seed uint64) Result {
	var cfgs []workload.IORConfig
	for _, sz := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		cfgs = append(cfgs, workload.IORConfig{Clients: 32, TransferSize: sz, StoneWall: 300 * sim.Millisecond})
	}
	body := fmt.Sprintf("%-10s %12s\n", "xfer", "agg MB/s")
	var peak float64
	var peakAt int64
	for _, r := range iorSweep(seed, cfgs) {
		body += fmt.Sprintf("%-10d %12.1f\n", r.Transfer, r.AggregateBps/1e6)
		if r.AggregateBps > peak {
			peak, peakAt = r.AggregateBps, r.Transfer
		}
	}
	body += fmt.Sprintf("knee at %d bytes; plateau beyond the 1 MiB wire-RPC cap (paper: best at 1 MiB, mild decline after)\n", peakAt)
	return Result{Table: body, Metrics: []regress.Record{
		metric("peak_transfer_bytes", "B", float64(peakAt)),
		metric("peak_gbps", "GB/s", peak/1e9),
	}}
}

func fig4(seed uint64) Result {
	var cfgs []workload.IORConfig
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128} {
		cfgs = append(cfgs, workload.IORConfig{Clients: n, TransferSize: 1 << 20, StoneWall: 300 * sim.Millisecond})
	}
	res := iorSweep(seed, cfgs)
	body := fmt.Sprintf("%-10s %12s\n", "clients", "agg MB/s")
	var plateau float64
	for _, r := range res {
		body += fmt.Sprintf("%-10d %12.1f\n", r.Clients, r.AggregateBps/1e6)
		if r.AggregateBps > plateau {
			plateau = r.AggregateBps
		}
	}
	body += "shape: near-linear scaling then a controller-bound plateau (paper: linear to ~6,000 clients, then steady)\n"
	first, last := res[0].AggregateBps, res[len(res)-1].AggregateBps
	return Result{Table: body, Metrics: []regress.Record{
		metric("plateau_gbps", "GB/s", plateau/1e9),
		metric("scaling_gain", "x", last/first),
		metric("plateau_droop", "frac", 1-last/plateau),
	}}
}

func e1(seed uint64) Result {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	cfg := workload.DefaultMixed()
	cfg.Duration = 3 * sim.Second
	cfg.MeanArrival = 4 * sim.Millisecond
	cfg.LargeMaxUnits = 4
	tr := workload.RunMixed(fs, cfg, rng.New(seed+1))
	small, large := 0, 0
	for _, s := range tr.Sizes {
		if s <= 16<<10 {
			small++
		} else if s >= 1<<20 {
			large++
		}
	}
	// Fit the Pareto tail above the median gap: the merged arrival
	// process of many streams is heavy-tailed in its tail, not its body.
	fit := stats.FitPareto(tr.InterArrivals, stats.Percentile(tr.InterArrivals, 0.5))
	n := float64(len(tr.Sizes))
	return Result{
		Table: fmt.Sprintf(
			"write fraction: %.2f (paper: 0.60)\nsize modality: %.0f%% <=16KiB, %.0f%% >=1MiB (paper: bimodal)\ninter-arrival Pareto tail alpha: %.2f over %d tail gaps (paper: long-tail Pareto)\n",
			tr.WriteFraction(), 100*float64(small)/n, 100*float64(large)/n, fit.Alpha, fit.N),
		Metrics: []regress.Record{
			metric("write_frac", "frac", tr.WriteFraction()),
			metric("small_frac", "frac", float64(small)/n),
			metric("large_frac", "frac", float64(large)/n),
			metric("pareto_alpha", "", fit.Alpha),
		},
	}
}

func e2(seed uint64) Result {
	seq := procure.CheckpointBandwidth(600e12, 0.75, 6*sim.Minute)
	rnd := procure.RandomDerate(1e12, 0.24)
	c := center.New(center.Config{Small: true, Namespaces: 1, Seed: seed})
	res := workload.RunCheckpoint(c.Namespaces[0], workload.CheckpointConfig{
		Writers: 64, BytesPerRank: 16 << 20, TransferSize: 1 << 20,
	})
	return Result{
		Table: fmt.Sprintf(
			"75%% of 600 TB in 6 min -> %.2f TB/s (paper: the 1 TB/s class requirement)\nrandom derate at 24%% -> %.0f GB/s (paper: 240 GB/s)\nsimulated miniature checkpoint: %.2f GB/s on 2/56-scale controllers\n",
			seq/1e12, rnd/1e9, res.AggregateBps/1e9),
		Metrics: []regress.Record{
			metric("required_tbps", "TB/s", seq/1e12),
			metric("random_gbps", "GB/s", rnd/1e9),
			metric("checkpoint_gbps", "GB/s", res.AggregateBps/1e9),
		},
	}
}

func e3(seed uint64) Result {
	eng := sim.NewEngine()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 1 << 30
	const nGroups = 32
	groups := raid.BuildGroups(eng, nGroups, raid.Spider2Group(), dcfg, disk.DefaultPopulation(), rng.New(seed))
	cfg := qa.DefaultElimination()
	cfg.BenchBytes = 32 << 20
	rep := qa.RunElimination(eng, groups, cfg, rng.New(seed+1))
	body := ""
	for _, r := range rep.Rounds {
		body += fmt.Sprintf("round %d: mean %.0f MB/s, spread %.1f%%, replaced %d\n",
			r.Index, r.MeanMBps, r.Spread*100, r.Replaced)
	}
	body += fmt.Sprintf("%v\n(paper: ~1,500 + ~500 of 20,160 drives replaced; 5%%->7.5%% envelope)\n", rep)
	drives := nGroups * raid.Spider2Group().Width()
	return Result{Table: body, Metrics: []regress.Record{
		metric("replaced_frac", "frac", float64(rep.TotalReplaced)/float64(drives)),
		metric("spread_tightening", "x", rep.Rounds[0].Spread/rep.Rounds[len(rep.Rounds)-1].Spread),
		metric("aggregate_ratio", "x", rep.AfterMBps/rep.BeforeMBps),
	}}
}

func e4(seed uint64) Result {
	run := func(mode netsim.RouteMode) (sim.Time, netsim.CongestionReport) {
		eng := sim.NewEngine()
		cfg := netsim.Spider2Fabric()
		cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
		pl := topology.PlaceRouters(topology.CabinetGrid{Cols: 5, Rows: 2}, cfg.Torus, 16, 4)
		f := netsim.NewFabric(eng, cfg, pl, 32)
		src := rng.New(seed)
		for i := 0; i < 48; i++ {
			c := cfg.Torus.CoordOf((i * 7) % cfg.Torus.Nodes())
			f.Net.StartFlow(f.ClientPath(c, i%32, mode, src), 1e9, nil)
		}
		eng.Run()
		return eng.Now(), f.Congestion(eng.Now())
	}
	fgrT, fgrRep := run(netsim.RouteFGR)
	naiveT, naiveRep := run(netsim.RouteNaive)
	return Result{
		Table: fmt.Sprintf(
			"48 streams x 1 GB each:\n  FGR:   %v, hottest link %.2f (%s), core bytes %.1e\n  naive: %v, hottest link %.2f (%s), core bytes %.1e\nFGR finishes %.2fx sooner and keeps traffic off the core\n",
			fgrT, fgrRep.MaxUtilization, fgrRep.HotLink, fgrRep.CoreBytes,
			naiveT, naiveRep.MaxUtilization, naiveRep.HotLink, naiveRep.CoreBytes,
			float64(naiveT)/float64(fgrT)),
		Metrics: []regress.Record{
			metric("speedup", "x", float64(naiveT)/float64(fgrT)),
			metric("fgr_core_bytes", "B", fgrRep.CoreBytes),
			metric("naive_core_bytes", "B", naiveRep.CoreBytes),
		},
	}
}

// e5Namespace builds the contended 2-SSU namespace of the libPIO
// study: twelve noise streams, three per OST of the first SSU, write
// until the given horizon from the noise client.
func e5Namespace(seed uint64, noiseID int, horizon sim.Time) (*sim.Engine, *lustre.FS) {
	eng := sim.NewEngine()
	p := lustre.TestNamespace()
	p.NumSSU = 2
	p.OSTsPerSSU = 4
	p.OSSPerSSU = 2
	fs := lustre.Build(eng, p, rng.New(seed))
	noise := lustre.NewClient(noiseID, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	var noiseFiles []*lustre.File
	for i := 0; i < 12; i++ {
		fs.CreateOn(fmt.Sprintf("noise/%d", i), []int{i % 4}, func(f *lustre.File) {
			noiseFiles = append(noiseFiles, f)
		})
	}
	eng.Run()
	for _, f := range noiseFiles {
		noise.WriteUntil(f, eng.Now()+horizon, 1<<20, nil)
	}
	eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	return eng, fs
}

// e5Synthetic runs the synthetic job under contention, placed by
// default round-robin or by libPIO.
func e5Synthetic(seed uint64, balanced bool) float64 {
	eng, fs := e5Namespace(seed, 1000, 2*sim.Second)
	var job *lustre.File
	if balanced {
		placement.New(fs, placement.Weights{}).CreateBalanced("job/out", 2, func(f *lustre.File) { job = f })
	} else {
		fs.CreateOn("job/out", []int{0, 1}, func(f *lustre.File) { job = f })
	}
	eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	start := eng.Now()
	var doneAt sim.Time
	client.WriteStream(job, 32<<20, 1<<20, func(int64) { doneAt = eng.Now() })
	eng.Run()
	return float64(32<<20) / (doneAt - start).Seconds()
}

// e5S3D runs the §VI-A production case: the S3D combustion code in a
// noisy environment, with and without the libPIO create hook.
func e5S3D(seed uint64, balanced bool) float64 {
	_, fs := e5Namespace(seed, 999, 10*sim.Second)
	cfg := workload.S3DConfig{Ranks: 8, DumpBytes: 64 << 20, Dumps: 2, ComputePhase: 200 * sim.Millisecond}
	if balanced {
		bal := placement.New(fs, placement.Weights{})
		cfg.CreateFile = func(fs *lustre.FS, path string, sc int, done func(*lustre.File)) {
			bal.CreateBalanced(path, sc, done)
		}
	}
	return workload.RunS3D(fs, cfg).DumpBps
}

func e5(seed uint64) Result {
	def, bal := e5Synthetic(seed, false), e5Synthetic(seed, true)
	s3dDef, s3dBal := e5S3D(seed+1, false), e5S3D(seed+1, true)
	return Result{
		Table: fmt.Sprintf(
			"synthetic job under contention: default %.0f MB/s, libPIO %.0f MB/s -> +%.0f%% (paper: >70%%)\nS3D dumps in production noise: default %.0f MB/s, libPIO %.0f MB/s -> +%.0f%% (paper: ~24%%)\n",
			def/1e6, bal/1e6, (bal/def-1)*100,
			s3dDef/1e6, s3dBal/1e6, (s3dBal/s3dDef-1)*100),
		Metrics: []regress.Record{
			metric("gain_pct", "%", (bal/def-1)*100),
			metric("s3d_gain_pct", "%", (s3dBal/s3dDef-1)*100),
		},
	}
}

func e6(seed uint64) Result {
	eng := sim.NewEngine()
	shared := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	dc := center.DataCentricWorkflow(shared, 256<<20, 4, 4)
	eng2 := sim.NewEngine()
	simFS := lustre.Build(eng2, lustre.TestNamespace(), rng.New(seed+1))
	p := lustre.TestNamespace()
	p.Name = "viz"
	vizFS := lustre.Build(eng2, p, rng.New(seed+2))
	ex := center.ExclusiveWorkflow(simFS, vizFS, 256<<20, 4, 4, 10e9)
	cmp := procure.CompareModels([]procure.Platform{
		{Name: "titan", MemBytes: 710e12, WorkflowShareBytes: 100e12},
		{Name: "analysis", MemBytes: 30e12, WorkflowShareBytes: 20e12},
		{Name: "viz", MemBytes: 20e12, WorkflowShareBytes: 10e12},
		{Name: "dtn", MemBytes: 10e12, WorkflowShareBytes: 5e12},
	}, procure.Spider2SSU(), 10e9)
	return Result{
		Table: fmt.Sprintf(
			"workflow: data-centric %v vs exclusive %v (transfer %v, %d MiB moved)\nacquisition: %v\n",
			dc.Total, ex.Total, ex.TransferTime, ex.BytesMoved>>20, cmp),
		Metrics: []regress.Record{
			metric("exclusive_over_dc_time", "x", float64(ex.Total)/float64(dc.Total)),
			metric("exclusive_cost_premium", "frac", cmp.MachineExclusiveUSD/cmp.DataCentricUSD-1),
			metric("dc_add_platform_usd", "USD", cmp.AddPlatformUSDDataCentric),
		},
	}
}

func e7(seed uint64) Result {
	fills := []float64{0.10, 0.50, 0.70, 0.90}
	rates := make([]float64, len(fills))
	for j, fill := range fills {
		eng := sim.NewEngine()
		fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed+uint64(j)))
		for _, ost := range fs.OSTs {
			ost.SetFill(fill)
		}
		client := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
		var f *lustre.File
		fs.Create("fill/test", 4, func(file *lustre.File) { f = file })
		eng.Run()
		// Sustained rate: time until the data is on the platters
		// (drain included) — the write-back cache would otherwise
		// hide the fragmentation cost of a full file system.
		start := eng.Now()
		client.WriteStream(f, 64<<20, 1<<20, nil)
		eng.Run()
		rates[j] = float64(64<<20) / (eng.Now() - start).Seconds() / 1e6
	}
	body := fmt.Sprintf("%-8s %12s\n", "fill", "write MB/s")
	monotone := true
	for j, fill := range fills {
		body += fmt.Sprintf("%-8.0f%% %12.1f\n", fill*100, rates[j])
		monotone = monotone && (j == 0 || rates[j] < rates[j-1])
	}
	body += "(paper: severe degradation past 70% full; visible effects past 50%)\n"
	return Result{Table: body, Metrics: []regress.Record{
		metric("empty_over_full", "x", rates[0]/rates[len(rates)-1]),
		metric("monotone", "bool", regress.Bool(monotone)),
	}}
}

func e8Incident(layout raid.EnclosureLayout, seed uint64) failure.IncidentReport {
	eng := sim.NewEngine()
	dcfg := disk.NLSAS2TB()
	dcfg.Capacity = 64 << 20
	groups := raid.BuildGroups(eng, 4, raid.Spider2Group(), dcfg, disk.DefaultPopulation(), rng.New(seed))
	for _, g := range groups {
		g.RebuildPause = 30 * sim.Minute
		g.RebuildChunk = 8
	}
	c := raid.NewCouplet(eng, 0, layout, groups)
	g := groups[0]
	g.FailDisk(0)
	repl := disk.New(eng, 9999, dcfg, disk.Nominal(), rng.New(seed).Split("r"))
	g.StartRebuild(0, repl, nil)
	c.ControllerFailover()
	c.Journal.Log(1_000_000)
	eng.RunFor(sim.Hour)
	c.FailEnclosure(1)
	eng.RunFor(17 * sim.Hour)
	rep := failure.IncidentReport{JournalLost: c.TakeOffline()}
	for _, gg := range c.Groups() {
		if gg.State() == raid.Failed {
			rep.GroupsFailed++
		}
	}
	rep.FilesRecovered, rep.FilesLost = c.RecoverFiles(rng.New(seed).Split("rec"), 0.95)
	return rep
}

func e8(seed uint64) Result {
	s1 := e8Incident(raid.Spider1Layout(), seed)
	s2 := e8Incident(raid.Spider2Layout(), seed+1)
	rate := 100 * float64(s1.FilesRecovered) / float64(s1.FilesRecovered+s1.FilesLost)
	return Result{
		Table: fmt.Sprintf(
			"spider1 5x2 layout:  %d groups failed, %d journal entries lost, %.1f%% recovered (paper: >1M files, 95%%, two weeks)\nspider2 10x1 layout: %d groups failed (same operator actions tolerated)\n",
			s1.GroupsFailed, s1.JournalLost, rate, s2.GroupsFailed),
		Metrics: []regress.Record{
			metric("recovery_pct", "%", rate),
			metric("journal_lost", "entries", float64(s1.JournalLost)),
			metric("spider1_groups_failed", "groups", float64(s1.GroupsFailed)),
			metric("spider2_groups_failed", "groups", float64(s2.GroupsFailed)),
		},
	}
}

func e9(seed uint64) Result {
	const truePeriod = 3.0
	// Each 0.4 s burst is four 100 ms samples at 40 GB/s above the floor.
	const trueBurst = 4 * 40e9 * 0.1
	src := rng.New(seed)
	var runs []iosi.Series
	for r := 0; r < 4; r++ {
		s := iosi.Series{Interval: 100 * sim.Millisecond}
		lsrc := src.Split(fmt.Sprintf("r%d", r))
		for k := 0; k < 400; k++ {
			v := 3e9 * lsrc.Float64() // noisy shared-system floor
			if k%30 < 4 {             // 3 s period, 0.4 s bursts
				v += 40e9
			}
			s.Samples = append(s.Samples, v)
		}
		runs = append(runs, s)
	}
	sig := iosi.Extract(runs, 4)
	return Result{
		Table: fmt.Sprintf("true period 3 s -> extracted %v; burst volume %.1f GB; confidence %.2f\n",
			sig.Period, sig.BurstVolume/1e9, sig.Confidence),
		Metrics: []regress.Record{
			metric("period_ratio", "x", sig.Period.Seconds()/truePeriod),
			metric("burst_volume_ratio", "x", sig.BurstVolume/trueBurst),
		},
	}
}

func e10(seed uint64) Result {
	var duS, duP tools.DUResult
	var cpS, cpP tools.CopyResult
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	tools.Populate(fs, tools.TreeSpec{Dirs: 10, FilesPerDir: 20, FileSize: 4 << 20, StripeCount: 2})
	eng.Run()
	tools.SerialDU(fs, nil, func(r tools.DUResult) { duS = r })
	eng.Run()
	tools.LustreDU(fs, nil, func(r tools.DUResult) { duP = r })
	eng.Run()
	var files []*lustre.File
	fs.Walk(nil, func(f *lustre.File) { files = append(files, f) })
	files = files[:64]
	tools.SerialCopy(fs, files, "cp-s", func(r tools.CopyResult) { cpS = r })
	eng.Run()
	tools.DCP(fs, files, "cp-p", 8, func(r tools.CopyResult) { cpP = r })
	eng.Run()
	return Result{
		Table: fmt.Sprintf(
			"du: %v with %d MDS ops -> LustreDU: %v with %d MDS ops (%.0fx)\ncp: %v -> dcp(8): %v (%.1fx)\n",
			duS.Duration, duS.MDSOps, duP.Duration, duP.MDSOps,
			float64(duS.Duration)/float64(duP.Duration),
			cpS.Duration, cpP.Duration, float64(cpS.Duration)/float64(cpP.Duration)),
		Metrics: []regress.Record{
			metric("du_speedup", "x", float64(duS.Duration)/float64(duP.Duration)),
			metric("lustredu_mds_ops", "ops", float64(duP.MDSOps)),
			metric("dcp_speedup", "x", float64(cpS.Duration)/float64(cpP.Duration)),
		},
	}
}

func e11(seed uint64) Result {
	run := func(n int) (center.MetadataLoadResult, float64) {
		eng := sim.NewEngine()
		var namespaces []*lustre.FS
		for j := 0; j < n; j++ {
			p := lustre.TestNamespace()
			p.Name = fmt.Sprintf("ns%d", j)
			namespaces = append(namespaces, lustre.Build(eng, p, rng.New(seed+uint64(j))))
		}
		res := center.MetadataStorm(namespaces, 3000, 64)
		return res, center.BlastRadius(namespaces, 0)
	}
	one, _ := run(1)
	two, blast := run(2)
	return Result{
		Table: fmt.Sprintf(
			"1 namespace:  %.0f metadata ops/s (MDS util %.2f), blast radius 100%%\n2 namespaces: %.0f metadata ops/s (MDS util %.2f), blast radius 50%%\n",
			one.OpsPerSec, one.Utilization, two.OpsPerSec, two.Utilization),
		Metrics: []regress.Record{
			metric("split_gain", "x", two.OpsPerSec/one.OpsPerSec),
			metric("mds_util_1ns", "frac", one.Utilization),
			metric("blast_radius_2ns", "frac", blast),
		},
	}
}

func e12(seed uint64) Result {
	sweep := benchsuite.Sweep{
		RequestSizes: []int64{64 << 10, 1 << 20},
		QueueDepths:  []int{8},
		WriteFracs:   []float64{0, 1},
		Random:       []bool{false, true},
		CellDuration: 300 * sim.Millisecond,
	}
	eng := sim.NewEngine()
	src := rng.New(seed)
	g := raid.BuildGroups(eng, 1, raid.Spider2Group(), disk.NLSAS2TB(), disk.DefaultPopulation(), src.Split("g"))[0]
	block := benchsuite.RunBlockLevel(eng, g, sweep, src.Split("b"))
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed+1))
	fsc := benchsuite.RunFSLevel(fs, sweep, src.Split("f"))
	over := benchsuite.CompareLevels(block, fsc)
	body := fmt.Sprintf("%-24s %12s %12s %10s\n", "cell", "block MB/s", "fs MB/s", "overhead")
	fracs := make([]float64, 0, len(over))
	for _, o := range over {
		body += fmt.Sprintf("%-24s %12.1f %12.1f %9.1f%%\n", o.Cell, o.BlockMBps, o.FSMBps, o.Frac*100)
		fracs = append(fracs, o.Frac)
	}
	body += "(the suite's purpose: comparing levels isolates file system software overhead)\n"
	return Result{Table: body, Metrics: []regress.Record{
		metric("median_overhead_frac", "frac", stats.Percentile(fracs, 0.5)),
		metric("cells", "cells", float64(len(over))),
	}}
}

func e13(seed uint64) Result {
	const days, filesPerDay = 25, 20
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	p := purge.New(fs, purge.Policy{MaxAge: 14 * sim.Day, Interval: sim.Day, Concurrency: 16})
	p.Start()
	day := 0
	var producer func()
	producer = func() {
		if day >= days {
			return
		}
		tools.Populate(fs, tools.TreeSpec{Dirs: 1, FilesPerDir: filesPerDay, FileSize: 8 << 20,
			Root: fmt.Sprintf("day%02d", day)})
		day++
		eng.After(sim.Day, producer)
	}
	producer()
	eng.RunUntil(days * sim.Day)
	p.Stop()
	eng.Run()
	return Result{
		Table: fmt.Sprintf(
			"25 days at 20 files/day under the 14-day policy: %d sweeps, %d deleted, %d resident (~15 days of production)\n",
			len(p.Sweeps), p.Deleted, fs.NumFiles),
		Metrics: []regress.Record{
			metric("resident_files", "files", float64(fs.NumFiles)),
			metric("resident_days", "days", float64(fs.NumFiles)/filesPerDay),
		},
	}
}

func e14(seed uint64) Result {
	run := func(up bool) float64 {
		c := center.New(center.Config{Small: true, Namespaces: 1, Upgraded: up, Seed: seed})
		return c.RunIOR(0, workload.IORConfig{
			Clients: 32, TransferSize: 1 << 20, StoneWall: sim.Second,
		}).AggregateBps
	}
	before, after := run(false), run(true)
	return Result{
		Table: fmt.Sprintf(
			"pre-upgrade %.2f GB/s -> post-upgrade %.2f GB/s = %.2fx\n(paper: 320 -> 510 GB/s per namespace = 1.59x)\n",
			before/1e9, after/1e9, after/before),
		Metrics: []regress.Record{metric("upgrade_ratio", "x", after/before)},
	}
}

func e15(seed uint64) Result {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	sched := monitor.NewScheduler(eng)
	for _, c := range monitor.StandardChecks(fs) {
		sched.Add(c)
	}
	sched.Start()
	coal := monitor.NewCoalescer(30 * sim.Second)
	groups := make([]*raid.Group, 0, len(fs.OSTs))
	for _, o := range fs.OSTs {
		groups = append(groups, o.Group())
	}
	inj := failure.NewInjector(eng, groups, failure.DiskFailureConfig{
		AnnualFailureRate: 60, ReplaceDelay: 30 * sim.Minute,
	}, rng.New(seed+1))
	inj.Events = coal.Ingest
	inj.Start()
	failure.CableFlap(eng, coal.Ingest, "ib-leaf1", 2*sim.Hour)
	for _, ost := range fs.OSTs {
		ost.SetFill(0.75) // trip the fill warning
	}
	eng.RunUntil(12 * sim.Hour)
	inj.Stop()
	sched.Stop()
	eng.Run()
	coal.Close()
	hwRoot, events := 0, 0
	for _, inc := range coal.Incidents {
		if inc.RootClass == monitor.Hardware {
			hwRoot++
		}
		events += len(inc.Events)
	}
	incidents := len(coal.Incidents)
	return Result{
		Table: fmt.Sprintf("12 h with fault injection: %d coalesced incidents (%d hardware-rooted), %d check alerts\n",
			incidents, hwRoot, len(sched.Alerts)),
		Metrics: []regress.Record{
			metric("incidents", "incidents", float64(incidents)),
			metric("hw_rooted_frac", "frac", float64(hwRoot)/float64(incidents)),
			metric("events_per_incident", "events", float64(events)/float64(incidents)),
		},
	}
}

func e16(seed uint64) Result {
	dlTime, _, _ := provision.FleetBoot(sim.NewEngine(), 288, provision.DisklessProfile(), provision.Spider2Scripts(), 64, rng.New(seed))
	dfTime, _, _ := provision.FleetBoot(sim.NewEngine(), 288, provision.DiskFullProfile(), provision.Spider2Scripts(), 64, rng.New(seed))
	dlConv := provision.Converge(sim.NewEngine(), 288, provision.Diskless, rng.New(seed+1))
	dfConv := provision.Converge(sim.NewEngine(), 288, provision.DiskFull, rng.New(seed+1))
	saving := provision.NodeCost(provision.DiskFull) - provision.NodeCost(provision.Diskless)
	return Result{
		Table: fmt.Sprintf(
			"288-node fleet boot: diskless %v vs disk-full %v\nconfig converge: diskless %v (%d failures) vs disk-full %v (%d failures)\nhardware saving: $%.0f/node x 728 server+router nodes = $%.1fM\n",
			dlTime, dfTime, dlConv.Duration, dlConv.Failures, dfConv.Duration, dfConv.Failures,
			saving, saving*728/1e6),
		Metrics: []regress.Record{
			metric("boot_speedup", "x", float64(dfTime)/float64(dlTime)),
			metric("converge_speedup", "x", float64(dfConv.Duration)/float64(dlConv.Duration)),
			metric("saving_per_node_usd", "USD", saving),
		},
	}
}

func e17(seed uint64) Result {
	rungs := qa.SpanLadder(lustre.TestNamespace(), seed)
	raidEff := 0.0
	for _, r := range rungs {
		if r.Layer == spantrace.RAID {
			raidEff = r.Efficiency
		}
	}
	return Result{
		Table: spantrace.RenderWaterfall(rungs) +
			"the ladder now falls out of one fully-traced write stream instead of four isolated probes:\n" +
			"every rung is the bandwidth that layer delivered while busy on the same I/O, and vs-below is\n" +
			"the \"lost performance in traversing from one layer to the next\" the methodology hunts\n" +
			"(paper ladder: disk 94% -> RAID 78% -> OST stack 62% -> client 84%; the RAID transition\n" +
			"reproduces as the parity-overhead rung, the client rung reflects the write-back ack)\n",
		Metrics: []regress.Record{metric("raid_efficiency", "frac", raidEff)},
	}
}

// e19 replays the integrity scenario twice under the same seed — scrub
// off versus the default pass interval: what the background scrubber
// buys in undetected corrupt reads, latent rebuild hits and lost
// stripes, and what it costs in read latency.
func e19(seed uint64) Result {
	cfg := integrity.DefaultScenario()
	cfg.Seed = seed
	off := cfg
	off.ScrubEvery = 0
	a, b := integrity.RunScenario(off), integrity.RunScenario(cfg)
	body := fmt.Sprintf("%-28s %14s %14s\n", "", "scrub off", fmt.Sprintf("every %v", cfg.ScrubEvery))
	row := func(name string, x, y any) { body += fmt.Sprintf("%-28s %14v %14v\n", name, x, y) }
	row("reads served", a.Reads, b.Reads)
	row("undetected corrupt reads", a.UndetectedReads, b.UndetectedReads)
	row("repaired on read", a.RepairedChunks, b.RepairedChunks)
	row("repaired by scrub", a.ScrubRepairs, b.ScrubRepairs)
	row("UREs detected", a.UREsDetected, b.UREsDetected)
	row("checksum mismatches", a.Mismatches, b.Mismatches)
	row("stripes lost (beyond parity)", a.LostStripes, b.LostStripes)
	row("latent hits during rebuild", a.RebuildHits, b.RebuildHits)
	row("rebuild exposure window", a.RebuildWindow, b.RebuildWindow)
	row("scrub passes", a.ScrubPasses, b.ScrubPasses)
	row("mean read latency (ms)",
		fmt.Sprintf("%.2f", a.MeanReadMs), fmt.Sprintf("%.2f", b.MeanReadMs))
	if a.MeanReadMs > 0 {
		body += fmt.Sprintf("scrub read-latency overhead: %.1f%%\n", (b.MeanReadMs/a.MeanReadMs-1)*100)
	}
	body += "(paper Sec. V: latent sector errors surface during rebuilds; periodic scrub closes the double-failure window)\n"
	return Result{Table: body, Metrics: []regress.Record{
		metric("scrubbed_undetected_reads", "reads", float64(b.UndetectedReads)),
		metric("scrubbed_lost_stripes", "stripes", float64(b.LostStripes)),
		metric("scrubbed_rebuild_hits", "hits", float64(b.RebuildHits)),
		metric("unscrubbed_undetected_reads", "reads", float64(a.UndetectedReads)),
		metric("unscrubbed_rebuild_hits", "hits", float64(a.RebuildHits)),
	}}
}

// hero is the end-to-end showcase: the full Titan torus (9,600 Gemini
// nodes, 74 routers) feeding a 1/6-scale namespace (3 SSUs, 168 OSTs,
// 1,680 drives) through FGR, 512 aggregated clients writing 1 MiB
// stonewall — the closest this repo gets to the paper's hero numbers in
// one simulation.
func hero(seed uint64) Result {
	c := center.New(center.Config{Scale: 6, Namespaces: 1, UseFabric: true,
		RouteMode: netsim.RouteFGR, Seed: seed})
	res := c.RunIOR(0, workload.IORConfig{
		Clients: 512, TransferSize: 1 << 20, StoneWall: 500 * sim.Millisecond,
	})
	agg := res.AggregateBps
	rep := c.Fabric.Congestion(c.Eng.Now())
	return Result{
		Table: fmt.Sprintf(
			"512 clients, 1 MiB stonewall: %.1f GB/s at 1/6 scale -> %.0f GB/s namespace extrapolation\n"+
				"(paper: 320 GB/s per namespace pre-upgrade); hottest link %.2f (%s), core bytes %.1e (FGR keeps the core dark)\n",
			agg/1e9, agg*6/1e9, rep.MaxUtilization, rep.HotLink, rep.CoreBytes),
		Metrics: []regress.Record{
			metric("namespace_gbps", "GB/s", agg*6/1e9),
			metric("core_bytes", "B", rep.CoreBytes),
			metric("hottest_link_util", "frac", rep.MaxUtilization),
		},
	}
}

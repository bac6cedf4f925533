package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"spiderfs/internal/disk"
	"spiderfs/internal/lustre"
	"spiderfs/internal/placement"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
	"spiderfs/internal/workload"
)

// ckpt-contend: the Sec. VI-A libPIO experiment. Twelve noise writers
// (three per hot OST) congest one SSU of a 2-SSU / 8-OST namespace; a
// job then writes its checkpoint, and an 8-rank S3D run dumps its
// state, each once with the stock placement and once with libPIO's
// balanced placement. Deep FIFO queues build in sim.Server at the
// disks, OSS CPUs and controllers; no fabric or service code runs.

const (
	ckptNoiseWriters = 12
	ckptHotOSTs      = 4
	ckptXfer         = 1 << 20
	ckptNoiseStagger = 10 * sim.Millisecond // noise writers start within this window
	ckptSetups       = 21                   // set-up repeats behind setup_s
)

// ckptInputs is what the workload seed generates: when each noise
// writer starts and which two hot OSTs the stock placement gives the
// synthetic job. The namespaces themselves (drive population and all)
// are fixed, as in the E5 paper benchmark, so the seed varies the
// workload and not the amount of hardware trouble it meets.
type ckptInputs struct {
	noiseDelay [ckptNoiseWriters]sim.Time
	jobOSTs    []int
}

func ckptInputsFor(seed uint64) ckptInputs {
	src := rng.New(seed).Split("ckpt-contend/inputs")
	var in ckptInputs
	for i := range in.noiseDelay {
		in.noiseDelay[i] = sim.Time(src.Int63n(int64(ckptNoiseStagger)))
	}
	in.jobOSTs = src.Perm(ckptHotOSTs)[:2]
	return in
}

// ckptShape sizes the experiment.
type ckptShape struct {
	synthNoise, s3dNoise sim.Time // how long the noise writers write
	jobBytes             int64    // the synthetic job's checkpoint
	s3d                  workload.S3DConfig
}

func ckptShapeFor(tiny bool) ckptShape {
	if tiny {
		return ckptShape{
			synthNoise: 300 * sim.Millisecond, s3dNoise: sim.Second, jobBytes: 8 << 20,
			s3d: workload.S3DConfig{Ranks: 4, DumpBytes: 8 << 20, Dumps: 1, ComputePhase: 50 * sim.Millisecond},
		}
	}
	return ckptShape{
		synthNoise: 2 * sim.Second, s3dNoise: 10 * sim.Second, jobBytes: 32 << 20,
		s3d: workload.S3DConfig{Ranks: 8, DumpBytes: 64 << 20, Dumps: 2, ComputePhase: 200 * sim.Millisecond},
	}
}

// ckptArm is one simulation of the experiment.
type ckptArm struct {
	s3d    bool // the S3D dumps rather than the synthetic checkpoint
	libPIO bool // balanced placement rather than the stock allocator
}

var ckptArms = []ckptArm{{false, false}, {false, true}, {true, false}, {true, true}}

func (a ckptArm) experiment() string {
	if a.s3d {
		return "s3d"
	}
	return "synthetic"
}

// armRun is one arm's namespace and what its simulation produced.
type armRun struct {
	ckptArm
	fs        *lustre.FS
	rpcs      uint64  // client RPCs, counted at the transport
	bps       float64 // the job's write bandwidth (simulated)
	wrote     int64   // bytes the job's writes acknowledged
	requested int64
}

// countingTransport delivers like lustre.NullTransport and counts the
// client RPCs it carries.
type countingTransport struct {
	lustre.NullTransport
	rpcs *uint64
}

func (t countingTransport) Send(from topology.Coord, oss int, bytes int64, done func()) {
	*t.rpcs++
	t.NullTransport.Send(from, oss, bytes, done)
}

// buildArms builds the four namespaces; both arms of one experiment
// get the same one, from E5's seeds.
func buildArms() []*armRun {
	runs := make([]*armRun, len(ckptArms))
	for i, a := range ckptArms {
		p := lustre.TestNamespace()
		p.NumSSU = 2
		p.OSTsPerSSU = 4
		p.OSSPerSSU = 2
		seed := uint64(900)
		if a.s3d {
			seed = 901
		}
		runs[i] = &armRun{ckptArm: a, fs: lustre.Build(sim.NewEngine(), p, rng.New(seed))}
	}
	return runs
}

// run simulates the arm, recording spans under parent.
func (r *armRun) run(tr *tracer, sess string, parent int, shape ckptShape, in ckptInputs) error {
	fs := r.fs
	eng := fs.Engine()
	tp := countingTransport{lustre.NullTransport{Eng: eng}, &r.rpcs}
	noiseID, noiseFor := 1000, shape.synthNoise
	if r.s3d {
		noiseID, noiseFor = 999, shape.s3dNoise
	}
	noise := lustre.NewClient(noiseID, topology.Coord{}, fs, tp)
	var noiseFiles []*lustre.File
	tr.call("lustre.CreateOn", sess, parent, func() {
		for i := 0; i < ckptNoiseWriters; i++ {
			fs.CreateOn(fmt.Sprintf("noise/%d", i), []int{i % ckptHotOSTs}, func(f *lustre.File) {
				noiseFiles = append(noiseFiles, f)
			})
		}
	})
	tr.call("sim.Run", sess, parent, eng.Run)
	deadline := eng.Now() + noiseFor
	tr.call("lustre.WriteUntil", sess, parent, func() {
		for i, f := range noiseFiles {
			eng.After(in.noiseDelay[i], func() { noise.WriteUntil(f, deadline, ckptXfer, nil) })
		}
	})
	tr.call("sim.RunUntil", sess, parent, func() { eng.RunUntil(eng.Now() + 50*sim.Millisecond) })

	if r.s3d {
		cfg := shape.s3d
		cfg.Transport = tp
		if r.libPIO {
			bal := placement.New(fs, placement.Weights{})
			cfg.CreateFile = func(_ *lustre.FS, path string, sc int, done func(*lustre.File)) {
				bal.CreateBalanced(path, sc, done)
			}
		}
		var res workload.S3DResult
		tr.call("workload.RunS3D", sess, parent, func() { res = workload.RunS3D(fs, cfg) })
		r.bps, r.wrote = res.DumpBps, res.BytesWritten
		r.requested = int64(cfg.Ranks) * cfg.DumpBytes * int64(cfg.Dumps)
		return nil
	}

	var job *lustre.File
	keep := func(f *lustre.File) { job = f }
	if r.libPIO {
		tr.call("placement.CreateBalanced", sess, parent, func() {
			placement.New(fs, placement.Weights{}).CreateBalanced("job/out", 2, keep)
		})
	} else {
		tr.call("lustre.CreateOn", sess, parent, func() { fs.CreateOn("job/out", in.jobOSTs, keep) })
	}
	tr.call("sim.RunUntil", sess, parent, func() { eng.RunUntil(eng.Now() + 10*sim.Millisecond) })
	if job == nil {
		return fmt.Errorf("job file not created within 10ms of simulated time")
	}
	client := lustre.NewClient(0, topology.Coord{}, fs, tp)
	start := eng.Now()
	var doneAt sim.Time
	tr.call("lustre.WriteStream", sess, parent, func() {
		client.WriteStream(job, shape.jobBytes, ckptXfer, func(n int64) { doneAt, r.wrote = eng.Now(), n })
	})
	tr.call("sim.Run", sess, parent, eng.Run)
	r.requested = shape.jobBytes
	if doneAt > start {
		r.bps = float64(r.wrote) / (doneAt - start).Seconds()
	}
	return nil
}

// addCounters adds the arm's storage-layer work counters to s.
func (r *armRun) addCounters(s *storageLayer) {
	for _, ost := range r.fs.OSTs {
		g := ost.Group()
		s.raidFullStripe += float64(g.FullStripeWrite)
		s.raidPartial += float64(g.PartialWrite)
		s.ostJournalCommits += float64(ost.JournalCommits)
		for _, d := range g.Disks() {
			s.diskOps += float64(d.Ops)
			s.diskBytes += float64(d.Bytes)
		}
	}
	for _, oss := range r.fs.OSSes {
		s.ossRPCs += float64(oss.RPCs)
	}
	for _, c := range r.fs.Ctrls {
		s.ctrlCacheStalls += float64(c.CacheStalls)
	}
	s.clientRPCs += float64(r.rpcs)
}

// queueProbe samples the event heap's depth on every fired event, and
// the disk, OSS and controller queues on every eighth, from the
// engine's trace hook. It observes and never schedules.
type queueProbe struct {
	eng   *sim.Engine
	fs    *lustre.FS
	disks []*disk.Disk
	n     uint64
	peak  struct{ pending, disk, oss, ctrl int }
}

func attachProbe(fs *lustre.FS) *queueProbe {
	p := &queueProbe{eng: fs.Engine(), fs: fs}
	for _, ost := range fs.OSTs {
		p.disks = append(p.disks, ost.Group().Disks()...)
	}
	p.eng.SetTrace(p.observe)
	return p
}

func (p *queueProbe) observe(sim.Time, uint64) {
	p.peak.pending = max(p.peak.pending, p.eng.Pending())
	p.n++
	if p.n%8 != 0 {
		return
	}
	for _, d := range p.disks {
		p.peak.disk = max(p.peak.disk, d.QueueLen())
	}
	for _, s := range p.fs.OSSes {
		p.peak.oss = max(p.peak.oss, s.QueueLen())
	}
	for _, c := range p.fs.Ctrls {
		p.peak.ctrl = max(p.peak.ctrl, c.QueueLen())
	}
}

func runCkpt(cfg config) (*outcome, error) {
	shape := ckptShapeFor(cfg.tiny)
	in := ckptInputsFor(cfg.seed)
	o := &outcome{}
	for i := 0; i < ckptSetups; i++ {
		runtime.GC() // each set-up starts from the same heap
		t0 := cpuTime()
		buildArms()
		o.setup = append(o.setup, seconds(cpuTime()-t0))
	}

	ph, err := startPhase(cfg, cpuTime)
	if err != nil {
		return nil, err
	}
	var (
		first      []*armRun // repetition 0, the reference every other must equal
		probes     []*queueProbe
		gcAcc      gcSnap
		untracedNs []float64
		events     float64
		tracedReps int
	)
	err = repeat(cfg, 0, func(i int, traced bool) error {
		runs := buildArms()
		tr := ph.tracerFor(traced)
		if traced {
			tracedReps++
			for _, r := range runs {
				probes = append(probes, attachProbe(r.fs))
			}
		}
		sess := fmt.Sprintf("rep-%d", i)
		before := readGC()
		t0 := cpuTime()
		root := tr.open("ckpt.rep", sess, 0)
		for _, r := range runs {
			id := tr.open("ckpt."+r.experiment(), sess, root)
			err := r.run(tr, sess, id, shape, in)
			tr.close(id)
			if err != nil {
				return err
			}
		}
		tr.close(root)
		host := cpuTime() - t0
		after := readGC()
		o.attempted += len(runs)

		fp := ckptFingerprint(runs)
		if i == 0 {
			first, o.fingerprint = runs, fp
			for _, r := range runs {
				events += float64(r.fs.Engine().Fired())
			}
		}
		o.check(fp == o.fingerprint, "repetition %d fingerprint %016x differs from repetition 0's %016x", i, fp, o.fingerprint)
		for _, r := range runs {
			o.check(r.wrote == r.requested, "%s (libPIO=%t): the job wrote %d of %d bytes", r.experiment(), r.libPIO, r.wrote, r.requested)
		}
		for e := 0; e < len(runs); e += 2 {
			def, bal := runs[e], runs[e+1]
			o.check(bal.bps > def.bps, "%s: libPIO %.0f B/s does not beat default placement %.0f B/s", def.experiment(), bal.bps, def.bps)
		}

		if traced {
			o.traced = append(o.traced, seconds(host))
		} else {
			o.reps = append(o.reps, seconds(host))
			o.sessions = append(o.sessions, seconds(host))
			untracedNs = append(untracedNs, float64(host.Nanoseconds()))
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

	l := &o.layers
	l.sim = simLayer{events: events, nsPerEvent: ratio(median(untracedNs), events)}
	for _, r := range first {
		l.sim.simulatedS += r.fs.Engine().Now().Seconds()
		r.addCounters(&l.storage)
	}
	for _, p := range probes {
		l.sim.pendingPeak = math.Max(l.sim.pendingPeak, float64(p.peak.pending))
		l.storage.diskQueuePeak = math.Max(l.storage.diskQueuePeak, float64(p.peak.disk))
		l.storage.ossQueuePeak = math.Max(l.storage.ossQueuePeak, float64(p.peak.oss))
		l.storage.ctrlQueuePeak = math.Max(l.storage.ctrlQueuePeak, float64(p.peak.ctrl))
	}
	st := &l.storage
	st.raidFullStripeFrac = ratio(st.raidFullStripe, st.raidFullStripe+st.raidPartial)
	st.ckptSyntheticS = ratio(seconds(ph.tr.total("ckpt.synthetic")), float64(tracedReps))
	st.ckptS3DS = ratio(seconds(ph.tr.total("ckpt.s3d")), float64(tracedReps))
	st.gainPctSynthetic = 100 * (ratio(first[1].bps, first[0].bps) - 1)
	st.gainPctS3D = 100 * (ratio(first[3].bps, first[2].bps) - 1)
	l.gc = gcAcc.layer(events*float64(len(o.reps)), len(o.reps))

	fmt.Fprintf(cfg.log, "ckpt-contend: synthetic default %.0f MB/s, libPIO %.0f MB/s (%+.0f%%, paper >70%%); S3D default %.0f MB/s, libPIO %.0f MB/s (%+.0f%%, paper ~24%%); %d untraced repetitions, median %.3fs\n",
		first[0].bps/1e6, first[1].bps/1e6, st.gainPctSynthetic, first[2].bps/1e6, first[3].bps/1e6, st.gainPctS3D, len(o.reps), median(o.reps))
	return o, nil
}

// ckptFingerprint folds each arm's end state: events fired, final
// clock, the job's result and the storage layers' counters.
func ckptFingerprint(runs []*armRun) uint64 {
	h := fnv.New64a()
	for _, r := range runs {
		var c storageLayer
		r.addCounters(&c)
		eng := r.fs.Engine()
		fold(h, eng.Fired(), uint64(eng.Now()), math.Float64bits(r.bps), uint64(r.wrote),
			uint64(c.diskOps), uint64(c.diskBytes), uint64(c.raidFullStripe), uint64(c.raidPartial),
			uint64(c.clientRPCs), uint64(c.ossRPCs), uint64(c.ctrlCacheStalls), uint64(c.ostJournalCommits))
	}
	return h.Sum64()
}

package serve

import (
	"fmt"

	"spiderfs/internal/chaos"
	"spiderfs/internal/ledger"
	"spiderfs/internal/netsim"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/sweep"
	"spiderfs/internal/topology"
)

// instance is one warm engine/fabric pair. The service reuses instances
// across workload sessions through the Reset seams instead of paying
// the fabric build (68,440 links at full scale) per session.
type instance struct {
	eng  *sim.Engine
	fab  *netsim.Fabric
	full bool
}

// buildInstance constructs a cold engine/fabric pair. The small shape
// matches the repo's small center (5x4x4 torus, 16 I/O modules in 4
// groups, 16 OSSes); full mirrors the production deployment the
// netbench suite drives (Titan torus, 110 modules, 288 OSSes).
func buildInstance(full bool) *instance {
	eng := sim.NewEngine()
	cfg := netsim.Spider2Fabric()
	var pl topology.Placement
	nOSS := 16
	if full {
		pl = topology.PlaceRouters(topology.TitanCabinets(), cfg.Torus, 110, 9)
		nOSS = 288
	} else {
		cfg.Torus = topology.Torus{NX: 5, NY: 4, NZ: 4}
		pl = topology.PlaceRouters(topology.CabinetGrid{Cols: 5, Rows: 2}, cfg.Torus, 16, 4)
	}
	return &instance{eng: eng, fab: netsim.NewFabric(eng, cfg, pl, nOSS), full: full}
}

// RunSolo executes one normalized spec on fresh state — the one-shot
// CLI path (`spidersim session`) and the reference the service's
// pooled results must match bit for bit. catalog supplies the sweep
// entries "sweep"-kind specs may name; nil is fine for the other kinds.
func RunSolo(spec Spec, catalog []sweep.Entry) (*Report, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "workload":
		inst := buildInstance(spec.Full)
		return runWorkload(inst.eng, inst.fab, spec, nil), nil
	case "chaos":
		return runChaos(spec), nil
	default:
		return runSweepEntry(spec, catalog)
	}
}

// runWorkload drives the session's congestion waves on the given
// engine/fabric — cold or pooled, the code path is identical, which is
// what makes warm reuse fingerprint-safe. All randomness comes from a
// named split of the spec seed; the engine trace plus the fabric's
// outcome counters form the fingerprint.
func runWorkload(eng *sim.Engine, fab *netsim.Fabric, spec Spec, note func(string)) *Report {
	th := sim.NewTraceHash()
	eng.SetTrace(th.Observe)
	src := rng.New(spec.Seed).Split("serve/workload")
	tor := fab.Cfg.Torus
	nodes, nOSS := tor.Nodes(), fab.NumOSS()
	// The session ledger records one milestone per drained wave at
	// simulated time, then anchors each as its own Merkle batch — so a
	// pooled replay of the same spec yields byte-identical roots (the
	// engine clock resets with the instance). Appends at the monotone
	// engine clock on an open ledger cannot fail, so the error is
	// discarded; the ledger never perturbs the run.
	ops := ledger.New(ledger.Config{})
	for w := 0; w < spec.Waves; w++ {
		for i := 0; i < spec.Flows; i++ {
			c := tor.CoordOf(src.Intn(nodes))
			fab.StartClientFlow(c, src.Intn(nOSS), netsim.RouteFGR, spec.Bytes, src, nil)
		}
		eng.Run()
		_ = ops.Append(eng.Now(), spec.Key(), "workload",
			fmt.Sprintf("wave-%d-drained", w+1),
			fmt.Sprintf("%d flows, %d total events fired", spec.Flows, eng.Fired()))
		ops.Seal()
		if note != nil {
			note(fmt.Sprintf("wave %d/%d drained", w+1, spec.Waves))
		}
	}
	ops.Close()
	eng.SetTrace(nil)

	fp := sim.NewHasher()
	fp.Word(th.Sum())
	fp.Word(eng.Fired())
	fp.Word(fab.Net.FlowsCompleted)
	fp.Float(fab.Net.BytesDelivered)
	fp.Word(fab.StalledSends)
	fp.Word(fab.DroppedFlows)
	return &Report{
		Kind: spec.Kind, Key: spec.Key(), Seed: spec.Seed,
		Fingerprint: fmt.Sprintf("%016x", fp.Sum()),
		Metrics: []Metric{
			{Name: "events", Value: float64(eng.Fired())},
			{Name: "flows_completed", Value: float64(fab.Net.FlowsCompleted)},
			{Name: "bytes_delivered", Value: fab.Net.BytesDelivered},
			{Name: "stalled_sends", Value: float64(fab.StalledSends)},
			{Name: "dropped_flows", Value: float64(fab.DroppedFlows)},
		},
		Ledger: ops.Export(),
	}
}

// runChaos replays the chaos campaign exactly as `spidersim chaos`
// configures it: the quick 1-day small center, or the 7-day full-scale
// campaign with Full, with an optional day-count override.
func runChaos(spec Spec) *Report {
	cfg := chaos.QuickConfig(spec.Seed)
	if spec.Full {
		cfg = chaos.DefaultConfig(spec.Seed)
	}
	if spec.Days > 0 {
		cfg.Duration = sim.Time(spec.Days) * sim.Day
	}
	rep := chaos.Run(cfg)
	return &Report{
		Kind: spec.Kind, Key: spec.Key(), Seed: spec.Seed,
		Fingerprint: fmt.Sprintf("%016x", rep.Fingerprint()),
		Metrics: []Metric{
			{Name: "availability", Value: rep.Availability},
			{Name: "ost_downtime_s", Value: rep.OSTDowntime.Seconds()},
			{Name: "stalled_sends", Value: float64(rep.StalledSends)},
			{Name: "dropped_flows", Value: float64(rep.DroppedFlows)},
			{Name: "incidents", Value: float64(rep.Incidents)},
		},
		Ledger: rep.Ops,
	}
}

// runSweepEntry runs one catalog sweep through the deterministic
// parallel replica runner. The entry's own seed and body are part of
// the catalog; the spec may only scale the replica count.
func runSweepEntry(spec Spec, catalog []sweep.Entry) (*Report, error) {
	for _, e := range catalog {
		if e.Label != spec.Sweep {
			continue
		}
		replicas := e.Replicas
		if spec.Replicas > 0 {
			replicas = spec.Replicas
		}
		res, err := sweep.Run(sweep.Config{
			Label: e.Label, Seed: e.Seed, Replicas: replicas,
		}, e.Body)
		if err != nil {
			return nil, err
		}
		return &Report{
			Kind: spec.Kind, Key: spec.Key(), Seed: spec.Seed,
			Fingerprint: fmt.Sprintf("%016x", res.Fingerprint()),
			Metrics: []Metric{
				{Name: "replicas", Value: float64(len(res.Replicas))},
				{Name: "errors", Value: float64(res.Errors)},
			},
		}, nil
	}
	return nil, fmt.Errorf("serve: sweep %q not in the registered catalog", spec.Sweep)
}

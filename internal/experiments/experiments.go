// Package experiments is the one registry of the paper's figures,
// embedded quantitative claims and feature ablations. Each row wires
// its scenario once: a run function that renders the reproduction
// table and reports named metrics, and the paper's claim as gates over
// those metrics. The root package's BenchmarkPaper and TestPaperClaims
// and `spidersim <id>` are thin loops over this table.
//
// Experiment ids (F* = figures, E* = embedded quantitative claims,
// A* = ablations) follow DESIGN.md; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"strings"

	"spiderfs/internal/regress"
)

// Result is one run of an experiment.
type Result struct {
	// Table is the rendered reproduction table.
	Table string
	// Metrics are the named measurements the claims are checked
	// against; the first is the row's headline figure.
	Metrics []regress.Record
}

// Experiment is one registry row.
type Experiment struct {
	ID      string
	Title   string // heading printed above the table, after the id
	Section string // where the claim sits in the paper
	// Seed is the default seed. Every model stream a run draws is the
	// seed plus a fixed offset, so Run(Seed) is the reference run.
	Seed uint64
	Run  func(seed uint64) Result
	// Claims are the paper's claim as gates, each naming a metric.
	// Bounds come from the paper's wording, not from a measured run.
	Claims []regress.Record
}

// All returns the registry in presentation order.
func All() []Experiment { return registry }

// Lookup finds a row by id, ignoring case.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Check gates a result against the row's claims with the same
// per-record check the BENCH artifacts use. Each finding names the row
// and the claimed metric.
func (e Experiment) Check(res Result) ([]regress.Finding, error) {
	var out []regress.Finding
	for _, c := range e.Claims {
		m, ok := regress.Find(res.Metrics, c.Name)
		if !ok {
			out = append(out, regress.Finding{Artifact: e.ID, Record: c.Name,
				Check: "missing", Detail: "metric not reported"})
			continue
		}
		detail, err := regress.Check(c, m)
		if err != nil {
			return nil, err
		}
		if detail != "" {
			out = append(out, regress.Finding{Artifact: e.ID, Record: c.Name,
				Check: string(c.Gate), Detail: detail})
		}
	}
	return out, nil
}

func metric(name, unit string, v float64) regress.Record {
	return regress.Record{Name: name, Value: v, Unit: unit}
}

// atLeast and atMost gate a metric against an absolute bound.
func atLeast(name string, bound float64) regress.Record {
	return regress.Record{Name: name, Value: bound, Gate: regress.Min, Bound: bound}
}

func atMost(name string, bound float64) regress.Record {
	return regress.Record{Name: name, Value: bound, Gate: regress.Max, Bound: bound}
}

// near gates a metric within frac of the paper's figure v.
func near(name string, v, frac float64) regress.Record {
	return regress.Record{Name: name, Value: v, Gate: regress.Band, Bound: frac}
}

func equals(name string, v float64) regress.Record {
	return regress.Record{Name: name, Value: v, Gate: regress.Exact}
}

// measurable is the floor for a claim the paper states only as
// "better", "faster" or "reduces": a ratio of at least 1.1, so a change
// that erases the effect (ratio 1) fails.
const measurable = 1.1

func gain(name string) regress.Record { return atLeast(name, measurable) }

var registry = []Experiment{
	{ID: "F2", Title: "router placement (Fig. 2)", Section: "Fig. 2, §V-B",
		Run:    fig2,
		Claims: []regress.Record{gain("clumped_over_spread")}},
	{ID: "F3", Title: "IOR bandwidth vs transfer size (Fig. 3)", Section: "Fig. 3, §V-C",
		Seed: 300, Run: fig3,
		Claims: []regress.Record{equals("peak_transfer_bytes", 1<<20)}},
	{ID: "F4", Title: "IOR bandwidth vs client count (Fig. 4)", Section: "Fig. 4, §V-C",
		Seed: 400, Run: fig4,
		// Rises with clients, then holds steady.
		Claims: []regress.Record{gain("scaling_gain"), atMost("plateau_droop", 0.05)}},
	{ID: "E1", Title: "workload characterization (paper Sec. II)", Section: "§II",
		Seed: 500, Run: e1,
		Claims: []regress.Record{
			near("write_frac", 0.60, 0.05),
			// Bimodal: both size modes hold a real share of requests.
			atLeast("small_frac", 0.2), atLeast("large_frac", 0.2),
			// Long-tailed Pareto: infinite variance below alpha 2.
			atMost("pareto_alpha", 2),
		}},
	{ID: "E2", Title: "checkpoint sizing (paper Sec. III-A)", Section: "§III-A",
		Seed: 600, Run: e2,
		Claims: []regress.Record{atLeast("required_tbps", 1), near("random_gbps", 240, 0.01)}},
	{ID: "E3", Title: "slow-disk elimination (paper Sec. V-A)", Section: "§V-A",
		Seed: 700, Run: e3,
		Claims: []regress.Record{
			// ~1,500 + ~500 of 20,160 drives: about a tenth of the fleet.
			atLeast("replaced_frac", 0.05), atMost("replaced_frac", 0.2),
			gain("spread_tightening"), atLeast("aggregate_ratio", 1),
		}},
	{ID: "E4", Title: "fine-grained routing (paper Sec. V-B)", Section: "§V-B",
		Seed: 800, Run: e4,
		Claims: []regress.Record{gain("speedup"), equals("fgr_core_bytes", 0),
			atLeast("naive_core_bytes", 1)}},
	{ID: "E5", Title: "libPIO balanced placement (paper Sec. VI-A)", Section: "§VI-A",
		Seed: 900, Run: e5,
		Claims: []regress.Record{atLeast("gain_pct", 70),
			// The paper's ~24% is an absolute figure of one production
			// run; the scale-free claim is that S3D gains measurably.
			atLeast("s3d_gain_pct", 100*(measurable-1))}},
	{ID: "E6", Title: "data-centric vs machine-exclusive (paper Secs. II, VII)", Section: "§II, §VII",
		Seed: 1000, Run: e6,
		Claims: []regress.Record{gain("exclusive_over_dc_time"),
			atLeast("exclusive_cost_premium", 0.10), equals("dc_add_platform_usd", 0)}},
	{ID: "E7", Title: "fill-level degradation (paper Secs. IV-C, VI-C)", Section: "§IV-C, §VI-C",
		Seed: 1100, Run: e7,
		// Severe degradation when full: at least half the rate lost.
		Claims: []regress.Record{atLeast("empty_over_full", 2), equals("monotone", 1)}},
	{ID: "E8", Title: "human-error incident (paper Sec. IV-E)", Section: "§IV-E",
		Seed: 1200, Run: e8,
		Claims: []regress.Record{near("recovery_pct", 95, 0.01),
			atLeast("journal_lost", 1e6), atLeast("spider1_groups_failed", 1),
			equals("spider2_groups_failed", 0)}},
	{ID: "E9", Title: "IOSI signature extraction (paper Sec. VI-B)", Section: "§VI-B",
		Seed: 1300, Run: e9,
		Claims: []regress.Record{near("period_ratio", 1, 0.05), near("burst_volume_ratio", 1, 0.10)}},
	{ID: "E10", Title: "scalable tools (paper Sec. VI-C)", Section: "§VI-C",
		Seed: 1400, Run: e10,
		Claims: []regress.Record{gain("du_speedup"), equals("lustredu_mds_ops", 0), gain("dcp_speedup")}},
	{ID: "E11", Title: "single vs multiple namespaces (paper Sec. IV-C)", Section: "§IV-C",
		Seed: 1500, Run: e11,
		Claims: []regress.Record{gain("split_gain"), atLeast("mds_util_1ns", 0.95),
			equals("blast_radius_2ns", 0.5)}},
	{ID: "E12", Title: "block vs FS level (paper Sec. III-B)", Section: "§III-B",
		Seed: 1600, Run: e12,
		// The FS level visibly trails the block level on the median cell.
		Claims: []regress.Record{atLeast("median_overhead_frac", measurable-1)}},
	{ID: "E13", Title: "purge policy (paper Sec. IV-C)", Section: "§IV-C",
		Seed: 1700, Run: e13,
		Claims: []regress.Record{near("resident_days", 14, 0.10)}},
	{ID: "E14", Title: "controller upgrade (paper Sec. V-C)", Section: "§V-C",
		Seed: 1800, Run: e14,
		Claims: []regress.Record{near("upgrade_ratio", 510.0/320, 0.10)}},
	{ID: "E15", Title: "monitoring pipeline (paper Sec. IV-A)", Section: "§IV-A",
		Seed: 1900, Run: e15,
		// Every injected fault is hardware, so every incident must be
		// rooted there, and cascades must collapse.
		Claims: []regress.Record{equals("hw_rooted_frac", 1), gain("events_per_incident")}},
	{ID: "E16", Title: "diskless provisioning (paper Sec. IV-A)", Section: "§IV-A, Lesson 7",
		Seed: 2000, Run: e16,
		Claims: []regress.Record{gain("boot_speedup"), gain("converge_speedup"),
			atLeast("saving_per_node_usd", 1)}},
	{ID: "E17", Title: "bottom-up layer profiling via spantrace waterfall (paper Sec. V, Lesson 12)",
		Section: "§V, Lesson 12", Seed: 2050, Run: e17,
		Claims: []regress.Record{near("raid_efficiency", 0.78, 0.10)}},
	{ID: "E19", Title: "background scrub vs latent-corruption exposure (paper Sec. V)", Section: "§V",
		Seed: 42, Run: e19,
		Claims: []regress.Record{
			equals("scrubbed_undetected_reads", 0), equals("scrubbed_lost_stripes", 0),
			equals("scrubbed_rebuild_hits", 0),
			atLeast("unscrubbed_undetected_reads", 1), atLeast("unscrubbed_rebuild_hits", 1),
		}},
	{ID: "HERO", Title: "full-fabric run (Titan torus -> FGR -> 1/6-scale namespace)", Section: "§V-C",
		Seed: 2025, Run: hero,
		// Scale-free claims only: the absolute namespace figure is a
		// known deviation (EXPERIMENTS.md).
		Claims: []regress.Record{equals("core_bytes", 0), atMost("hottest_link_util", 0.9)}},
	{ID: "A1", Title: "ablation: high-performance journaling (paper Sec. IV-D)", Section: "§IV-D",
		Seed: 2100, Run: a1, Claims: []regress.Record{gain("hp_over_sync")}},
	{ID: "A2", Title: "ablation: imperative recovery (paper Sec. IV-D)", Section: "§IV-D",
		Seed: 2200, Run: a2, Claims: []regress.Record{gain("stall_reduction")}},
	{ID: "A3", Title: "ablation: asymmetric router notification (paper Sec. IV-D)", Section: "§IV-D",
		Seed: 2300, Run: a3,
		Claims: []regress.Record{gain("completion_speedup"), equals("arn_stalled_sends", 0)}},
	{ID: "A4", Title: "ablation: DNE metadata sharding (paper Sec. IV-C)", Section: "§IV-C",
		Seed: 2400, Run: a4, Claims: []regress.Record{gain("dne_speedup")}},
	{ID: "A5", Title: "ablation: small-file stripe count (paper Sec. VII best practices)", Section: "§VII",
		Seed: 2500, Run: a5, Claims: []regress.Record{gain("stripe4_over_stripe1")}},
	{ID: "A6", Title: "ablation: stripe-aligned I/O (paper Sec. VII best practices)", Section: "§VII",
		Seed: 2600, Run: a6, Claims: []regress.Record{gain("aligned_gain")}},
	{ID: "A7", Title: "ablation: building code on the scratch FS (paper Sec. VII)", Section: "§VII",
		Seed: 2700, Run: a7, Claims: []regress.Record{gain("latency_inflation")}},
	{ID: "A8", Title: "ablation: IOSI-driven burst scheduling (paper Sec. VI-B, Lesson 18)",
		Section: "§VI-B, Lesson 18", Seed: 2800, Run: a8,
		Claims: []regress.Record{gain("stagger_gain")}},
}

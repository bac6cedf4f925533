package benchsuite

import (
	"spiderfs/internal/chaos"
	"spiderfs/internal/purge"
	"spiderfs/internal/qa"
	"spiderfs/internal/sweep"
)

// SweepEntries returns the repository's standard seed sweeps — the
// experiments whose paper claims are statistical shapes, not point
// samples: E3 slow-disk elimination (§V-A drive-spread distribution),
// E13 purge residency (§IV-C under stochastic production), and the E18
// chaos campaign (§IV-D availability over many fault schedules). Each
// replica is an independent full simulation seeded from the sweep
// stream; `spidersim sweep` and `benchsuite -suite sweep` both drive exactly
// this list, and BENCH_sweep.json is its artifact.
func SweepEntries(seed uint64) []sweep.Entry {
	e3 := qa.DefaultElimination()
	e3.BenchBytes = 16 << 20
	return []sweep.Entry{
		{Label: "e3-slowdisk", Replicas: 16, Seed: seed, Body: qa.SlowDiskReplica(16, e3)},
		{Label: "e13-purge", Replicas: 16, Seed: seed, Body: purge.ResidencyReplica(purge.DefaultResidency())},
		{Label: "e18-chaos", Replicas: 32, Seed: seed, Body: chaos.CampaignReplica(chaos.QuickConfig(0))},
	}
}

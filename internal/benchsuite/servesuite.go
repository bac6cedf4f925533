package benchsuite

import "spiderfs/internal/sweep"

// ServeCatalog is the sweep catalog the simulation service registers:
// everything `spidersim sweep` can run, so a "sweep"-kind session names
// the same entries the CLI does. Both cmd/spidersimd and the one-shot
// `spidersim session` path use this, which is what makes their reports
// byte-identical for sweep specs.
func ServeCatalog(seed uint64) []sweep.Entry {
	return append(SweepEntries(seed), IntegrityEntries(seed)...)
}

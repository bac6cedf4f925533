package sweep

import (
	"fmt"
	"strings"

	"spiderfs/internal/stats"
)

// MetricStats is the cross-replica aggregate of one named metric:
// moments, extremes, median, and the 95% confidence-interval half-width
// of the mean (Student-t, so small replica counts are honest).
type MetricStats struct {
	Name   string
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	P50    float64
	CI95   float64
}

// Aggregate merges same-named metrics across replicas. Metric names
// appear in first-recorded order (replica index order, then record
// order within a replica) — never map order — so the aggregate listing
// is part of the byte-identical report contract. Failed replicas
// contribute no samples.
func (res *Result) Aggregate() []MetricStats {
	var names []string
	slot := map[string]int{}
	samples := [][]float64{}
	for _, r := range res.Replicas {
		if r.Err != "" {
			continue
		}
		for _, m := range r.Metrics {
			i, ok := slot[m.Name]
			if !ok {
				i = len(names)
				slot[m.Name] = i
				names = append(names, m.Name)
				samples = append(samples, nil)
			}
			samples[i] = append(samples[i], m.Value)
		}
	}
	out := make([]MetricStats, len(names))
	for i, name := range names {
		var s stats.Summary
		for _, v := range samples[i] {
			s.Add(v)
		}
		out[i] = MetricStats{
			Name:   name,
			N:      int(s.N),
			Mean:   s.Mean,
			Stddev: s.Stddev(),
			Min:    s.Min,
			Max:    s.Max,
			P50:    stats.Percentile(samples[i], 0.5),
			CI95:   s.CI95Half(),
		}
	}
	return out
}

// Report renders the merged sweep as a fixed-width table. Two runs of
// the same config must produce byte-identical output regardless of
// worker count — the double-run test compares exactly this string.
func (res *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %s: %d replicas, seed %d, %d failed (fingerprint %016x)\n",
		res.Label, len(res.Replicas), res.Seed, res.Errors, res.Fingerprint())
	fmt.Fprintf(&b, "  %-24s %4s %12s %12s %12s %12s %12s\n",
		"metric", "n", "mean", "ci95±", "stddev", "min", "max")
	for _, m := range res.Aggregate() {
		fmt.Fprintf(&b, "  %-24s %4d %12.4f %12.4f %12.4f %12.4f %12.4f\n",
			m.Name, m.N, m.Mean, m.CI95, m.Stddev, m.Min, m.Max)
	}
	for _, r := range res.Replicas {
		if r.Err != "" {
			fmt.Fprintf(&b, "  replica %d failed: %s\n", r.Index, r.Err)
		}
	}
	return b.String()
}

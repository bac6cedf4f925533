// The paper's figures, embedded quantitative claims and ablations, run
// from the one registry in internal/experiments. BenchmarkPaper times
// each row and prints its reproduction table once per process, so
// `go test -run '^$' -bench . -benchtime 1x .` regenerates every table;
// TestPaperClaims gates each row's claim in every `go test` run.
package spiderfs_test

import (
	"fmt"
	"testing"

	"spiderfs/internal/experiments"
)

func BenchmarkPaper(b *testing.B) {
	printed := map[string]bool{}
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			var res experiments.Result
			for i := 0; i < b.N; i++ {
				res = e.Run(e.Seed)
			}
			if !printed[e.ID] {
				printed[e.ID] = true
				fmt.Printf("\n--- %s %s ---\n%s", e.ID, e.Title, res.Table)
			}
			for _, m := range res.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}

func TestPaperClaims(t *testing.T) {
	for _, e := range experiments.All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			findings, err := e.Check(e.Run(e.Seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				t.Error(f)
			}
		})
	}
}

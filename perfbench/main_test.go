package main

import (
	"encoding/json"
	"io"
	"testing"
)

// tinyRuns caches the tiny-scale runs both tests read, keyed by
// workload and tracing.
var tinyRuns = map[string]*outcome{}

// runTiny runs a workload at smoke-test scale.
func runTiny(t *testing.T, workload string, traced bool) *outcome {
	t.Helper()
	key := workload
	if traced {
		key += "/traced"
	}
	if o, ok := tinyRuns[key]; ok {
		return o
	}
	cfg := config{workload: workload, seed: 7, tiny: true, traced: traced, outDir: t.TempDir(), log: io.Discard}
	for _, w := range workloads {
		if w.name == workload {
			o, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", workload, traced, err)
			}
			tinyRuns[key] = o
			return o
		}
	}
	t.Fatalf("no workload %s", workload)
	return nil
}

// TestSmokeEveryMetric runs every workload at tiny scale, untraced and
// traced, and checks that the result line carries every metric
// BENCHMARK.json names, with its unit, and no other, and that every
// output check passed.
func TestSmokeEveryMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, traced := runTiny(t, w.name, false), runTiny(t, w.name, true)
			for _, c := range []struct {
				o      *outcome
				list   []metricSpec
				values []named
			}{
				{plain, spec.EndToEnd, plain.endToEnd()},
				{traced, spec.PerLayer, traced.perLayer()},
			} {
				if c.o.failed != 0 || c.o.attempted < 1 {
					t.Errorf("attempted %d, failed %d: %v", c.o.attempted, c.o.failed, c.o.problems)
				}
				line, err := renderLine(c.o, c.list, c.values)
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct bool
					Metrics map[string]valueUnit
				}
				if err := json.Unmarshal([]byte(line), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || len(res.Metrics) != len(c.list) {
					t.Errorf("correct=%t with %d metrics, want true with %d", res.Correct, len(res.Metrics), len(c.list))
				}
				for _, m := range c.list {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
			}
			for _, v := range plain.endToEnd() {
				if v.value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", v.name, v.value)
				}
			}
		})
	}
}

// TestTracedFingerprintIdentity checks that tracing leaves the
// simulated end state alone. A traced run checks each traced
// repetition's fingerprint against its untraced repetition 0 and
// counts a mismatch as a failure; on top of that, the traced and the
// untraced run of one seed must report the same fingerprint.
func TestTracedFingerprintIdentity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, traced := runTiny(t, w.name, false), runTiny(t, w.name, true)
			if traced.failed != 0 {
				t.Errorf("traced run failed its checks: %v", traced.problems)
			}
			if plain.fingerprint != traced.fingerprint {
				t.Errorf("traced fingerprint %016x differs from untraced %016x", traced.fingerprint, plain.fingerprint)
			}
		})
	}
}

// TestRenderLineRejectsMismatch checks that the program and the metric
// list must agree name for name.
func TestRenderLineRejectsMismatch(t *testing.T) {
	o := &outcome{attempted: 1}
	list := []metricSpec{{"a", "s"}, {"b", "ms"}}
	if _, err := renderLine(o, list, []named{{"a", 1}}); err == nil {
		t.Error("a listed metric that is not produced was accepted")
	}
	if _, err := renderLine(o, list, []named{{"a", 1}, {"b", 2}, {"c", 3}}); err == nil {
		t.Error("a produced metric that is not listed was accepted")
	}
	if _, err := renderLine(o, list, []named{{"a", 1}, {"b", 2}}); err != nil {
		t.Error(err)
	}
}

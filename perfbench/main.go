// Command perfbench is the repository benchmark. It drives the
// simulator's layers through their public entry points on three
// workloads, checks every simulated output, and prints one JSON result
// line: the end-to-end metrics of BENCHMARK.json with tracing off, or
// its per-layer metrics with tracing on. METRICS.md says what each
// workload exercises and which metric each layer figure should move.
//
// Run it from the repository root (run.sh builds and runs it there):
//
//	bash perfbench/run.sh --workload ckpt-contend --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	budget   time.Duration // how long the timed phase repeats its unit of work
	traced   bool
	tiny     bool   // smoke-test scale: same code paths, a fraction of the work
	outDir   string // where a traced run writes its spans and CPU profile
	log      io.Writer
}

// workloads maps a workload name to the function that runs it.
var workloads = []struct {
	name string
	run  func(config) (*outcome, error)
}{
	{"ckpt-contend", runCkpt},
	{"fabric-burst", runFabric},
	{"daemon-mix", runDaemon},
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ckpt-contend, fabric-burst or daemon-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans, samples queues and profiles the CPU, and prints the per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	cfg.outDir = ".bench_build"
	cfg.log = os.Stderr

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := runAndReport(cfg, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// runAndReport runs the configured workload and renders its result
// line against the metric list of spec.
func runAndReport(cfg config, spec *benchSpec) (string, error) {
	var run func(config) (*outcome, error)
	for _, w := range workloads {
		if w.name == cfg.workload {
			run = w.run
		}
	}
	if run == nil {
		return "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.traced {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return "", err
		}
	}
	o, err := run(cfg)
	if err != nil {
		return "", fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, p := range o.problems {
		fmt.Fprintf(cfg.log, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(cfg.log, "%s seed=%d fingerprint=%016x attempted=%d failed=%d failed_frac=%g\n",
		cfg.workload, cfg.seed, o.fingerprint, o.attempted, o.failed, o.failedFrac())
	fmt.Fprintf(cfg.log, "set-ups (CPU s): %.4g\n", o.setup)
	fmt.Fprintf(cfg.log, "untraced repetitions (CPU s): %.4g\n", o.reps)

	list, values := spec.EndToEnd, o.endToEnd()
	if cfg.traced {
		list, values = spec.PerLayer, o.perLayer()
	}
	return renderLine(o, list, values)
}

// valueUnit is one metric of the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// renderLine prints exactly the metrics of list, taking each value from
// values. A listed metric the workload did not produce, or a produced
// one the list does not name, is an error: the program and
// BENCHMARK.json must agree name for name.
func renderLine(o *outcome, list []metricSpec, values []named) (string, error) {
	byName := make(map[string]float64, len(values))
	for _, v := range values {
		if _, dup := byName[v.name]; dup {
			return "", fmt.Errorf("metric %s produced twice", v.name)
		}
		byName[v.name] = v.value
	}
	out := make(map[string]valueUnit, len(list))
	for _, m := range list {
		v, ok := byName[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s is named in the benchmark definition but not produced", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	if len(out) != len(byName) {
		return "", fmt.Errorf("produced %d metrics but the benchmark definition names %d", len(byName), len(out))
	}
	data, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, out})
	return string(data), err
}

// benchSpec is the part of BENCHMARK.json this program reads: the
// metric names with their units.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// outFile names a traced-run artifact of the workload in cfg.outDir.
func outFile(cfg config, kind string) string {
	return filepath.Join(cfg.outDir, cfg.workload+"."+kind)
}

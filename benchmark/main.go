// Command benchmark is ndflow's end-to-end benchmark. One process
// generates a workload from a seed, drives it closed-loop against the
// library, checks the output of every op, and prints each metric by
// name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 612, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1
// they are the per-layer ones. Spans recorded around the benchmark's
// calls into each layer give those, together with engine counter deltas.
// The spans are also written out as a Chrome trace (see --spans).
//
// Build and run it from the repository root through the wrapper:
//
//	python3 benchmark/run.py --workload cold-mix --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads and metrics, and the
// layer each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansOut string // traced run: where the spans are written ("" = nowhere)

	// Knobs the command line does not expose; tests shrink a run with them.
	setupReps  int // set-ups timed for setup_s; the last one is measured
	minOps     int // ops the window runs past its deadline to reach
	plantEvery int // > 0: every plantEvery-th op gets a wrong output cell
}

func defaultConfig() config {
	return config{seconds: 10, setupReps: 5, minOps: 100}
}

func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs and op sequence are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.spansOut, "spans", "", "traced run: file the spans are written to (default .bench_build/spans-WORKLOAD-SEED.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if findWorkload(cfg.workload) == nil {
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	switch *trace {
	case 0:
	case 1:
		cfg.trace = true
		if cfg.spansOut == "" {
			cfg.spansOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		}
	default:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return cfg, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Printed with the metrics, not encoded.
	failFrac, allocsPerOp float64
	samples, setups       int
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func writeResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"

	"github.com/ndflow/ndflow/internal/experiments"
	"github.com/ndflow/ndflow/internal/matrix"
)

// smallConfig is a run shrunk to a handful of ops.
func smallConfig(workload string, ops int) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds = workload, 7, 0.01
	cfg.setupReps, cfg.minOps = 1, ops
	return cfg
}

func TestPlantedCellCountsAsFailedOp(t *testing.T) {
	for _, tc := range []struct {
		workload string
		ops      int
	}{{"cold-mix", 14}, {"live-lu", 4}} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := smallConfig(tc.workload, tc.ops)
			cfg.plantEvery = 2
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("planted cells went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if res.Attempted < int64(tc.ops) || res.Failed >= res.Attempted {
				t.Fatalf("failures aborted the run: attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if res.failFrac <= 0 {
				t.Fatalf("fail_frac = %g, want > 0", res.failFrac)
			}
		})
	}
}

func TestCleanRunIsCorrect(t *testing.T) {
	for _, tc := range []struct {
		workload string
		ops      int
		trace    bool
	}{{"cold-mix", 14, false}, {"warm-sched", 50, false}, {"cold-mix", 14, true}} {
		cfg := smallConfig(tc.workload, tc.ops)
		cfg.trace = tc.trace
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s (trace %v): correct=%v failed=%d of %d", tc.workload, tc.trace, res.Correct, res.Failed, res.Attempted)
		}
		defs := endToEndMetrics
		if tc.trace {
			defs = perLayerMetrics
		}
		for _, d := range defs {
			want := tc.trace || d.gated
			if d.name == "op_ms_p90" && res.samples < 100 {
				want = false // fewer than ten samples beyond it
			}
			if _, ok := res.Metrics[d.name]; ok != want {
				t.Errorf("%s (trace %v): metric %s present=%v", tc.workload, tc.trace, d.name, ok)
			}
		}
	}
}

func TestSeedDeterminesOpsAndInputs(t *testing.T) {
	coldOps := func(seed int64) []int {
		p := newColdPlan(seed)
		var ops []int
		for i := 0; i < 40; i++ {
			b, v := p.next()
			ops = append(ops, b*coldVariants+v)
		}
		return ops
	}
	dynOps := func(seed int64) []int {
		p := &dynPlan{newRand(seed)}
		var ops []int
		for i := 0; i < 40; i++ {
			c, n := p.next()
			ops = append(ops, c*100+n)
		}
		return ops
	}
	luMatrix := func(seed int64) *matrix.Matrix {
		in, err := newLUInstance(seed)
		if err != nil {
			t.Fatal(err)
		}
		return in.pristine
	}
	if !slices.Equal(coldOps(1), coldOps(1)) || slices.Equal(coldOps(1), coldOps(2)) {
		t.Error("cold-mix op sequence does not follow the seed")
	}
	if !slices.Equal(dynOps(1), dynOps(1)) || slices.Equal(dynOps(1), dynOps(2)) {
		t.Error("dyn-mix op stream does not follow the seed")
	}
	if matrix.MaxAbsDiff(luMatrix(1), luMatrix(1)) != 0 || matrix.MaxAbsDiff(luMatrix(1), luMatrix(2)) == 0 {
		t.Error("live-lu input does not follow the seed")
	}
	for _, cc := range coldCases {
		a, _ := cc.input(1, 16)
		b, _ := cc.input(1, 16)
		c, _ := cc.input(2, 16)
		if matrix.MaxAbsDiff(a.want, b.want) != 0 || matrix.MaxAbsDiff(a.want, c.want) == 0 {
			t.Errorf("%s input does not follow the seed", cc.name)
		}
	}
}

func TestColdMixCoversExperimentBuilders(t *testing.T) {
	var want, got []string
	for _, b := range experiments.Builders() {
		want = append(want, b.Name)
	}
	for _, cc := range coldCases {
		got = append(got, cc.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cold-mix builders %v, experiments.Builders() %v", got, want)
	}
}

// TestBenchmarkJSONMatchesProgram keeps the repository's BENCHMARK.json
// and the metrics this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	var gated []metricDef
	for _, d := range endToEndMetrics {
		if d.gated {
			gated = append(gated, d)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, gated)
	check("per_layer", bj.PerLayer, perLayerMetrics)
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	l := &spanLog{spans: []span{
		{parent: -1, start: ms(0), end: ms(10)}, // op
		{parent: 0, start: ms(1), end: ms(4)},
		{parent: 0, start: ms(3), end: ms(6)}, // overlaps the first child
		{parent: 2, start: ms(4), end: ms(5)},
		{parent: -1, start: ms(11), end: ms(12)}, // outside the op
	}}
	want := []time.Duration{ms(5), ms(3), ms(2), ms(1), ms(1)}
	if got := l.selfTimes(); !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestFibClosedForm(t *testing.T) {
	a, b := int64(0), int64(1)
	for n := 0; n <= 70; n++ {
		if got := fibClosed(n); got != a {
			t.Fatalf("fibClosed(%d) = %d, want %d", n, got, a)
		}
		a, b = b, a+b
	}
}

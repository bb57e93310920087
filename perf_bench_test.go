// Micro-benchmarks for the compiled-core pipeline: program construction
// (BenchmarkProgramBuild), the DAG Rewriting System (BenchmarkRewrite),
// the CSR compile step (BenchmarkCompile) and the long-lived execution
// engine (BenchmarkEngineRerun for zero-alloc cached re-runs,
// BenchmarkEngineThroughput vs. BenchmarkEnginePerRunThroughput for
// concurrent serving) on large Floyd–Warshall instances. Run with
//
//	go test -bench 'ProgramBuild|Rewrite|Compile|Engine' -benchmem
//
// to measure both throughput and per-strand allocation behaviour.
package ndflow_test

import (
	"math/rand"
	"testing"

	"github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/cholesky"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/algos/lcs"
	"github.com/ndflow/ndflow/internal/algos/lu"
	"github.com/ndflow/ndflow/internal/algos/matmul"
	"github.com/ndflow/ndflow/internal/algos/stencil"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// fwProgram builds an ND 1-D Floyd–Warshall program (with live strand
// closures) at the given size.
func fwProgram(b *testing.B, n, base int) *core.Program {
	b.Helper()
	inst := fw.NewInstance(matrix.NewSpace(), n, 11)
	prog, err := fw.New(algos.ND, inst, base)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkProgramBuild measures the front end's first layer: building
// and freezing a fresh spawn tree (strand footprints, subtree unions,
// NewProgram) for each of the seven ND builders, at the sizes and base
// case the cold-mix benchmark workload uses. Inputs are generated once;
// only program construction is timed.
func BenchmarkProgramBuild(b *testing.B) {
	const base = 8
	square := func(s *matrix.Space, n int, fill func(*matrix.Matrix)) *matrix.Matrix {
		m := matrix.New(s, n, n)
		fill(m)
		return m
	}
	r := rand.New(rand.NewSource(1))
	random := func(m *matrix.Matrix) { m.FillRandom(r) }
	s := matrix.NewSpace()
	luA := square(s, 128, func(m *matrix.Matrix) {
		m.FillRandom(r)
		for i := 0; i < 128; i++ {
			m.Add(i, i, 2)
		}
	})
	luInst, err := lu.NewInstance(s, luA, base)
	if err != nil {
		b.Fatal(err)
	}
	mmA, mmB, mmC := square(s, 64, random), square(s, 64, random), square(s, 64, random)
	trsT := square(s, 128, func(m *matrix.Matrix) { m.FillLowerTriangular(r) })
	trsX := square(s, 128, random)
	chol := square(s, 128, func(m *matrix.Matrix) { m.FillSPD(r) })
	fwInst := fw.NewInstance(matrix.NewSpace(), 256, 1)
	lcsInst := lcs.NewInstance(matrix.NewSpace(), 256, 3, 1)
	stInst := stencil.NewInstance(matrix.NewSpace(), 256, 1)
	cases := []struct {
		name  string
		build func() (*core.Program, error)
	}{
		{"MM-64", func() (*core.Program, error) { return matmul.New(algos.ND, mmC, mmA, mmB, 1, base) }},
		{"TRS-128", func() (*core.Program, error) { return trs.New(algos.ND, trsT, trsX, base) }},
		{"Cholesky-128", func() (*core.Program, error) {
			p, _, err := cholesky.New(algos.ND, chol, base)
			return p, err
		}},
		{"LU-128", func() (*core.Program, error) { return lu.New(algos.ND, luInst) }},
		{"FW-1D-256", func() (*core.Program, error) { return fw.New(algos.ND, fwInst, base) }},
		{"LCS-256", func() (*core.Program, error) { return lcs.New(algos.ND, lcsInst, base) }},
		{"Stencil-256", func() (*core.Program, error) { return stencil.New(algos.ND, stInst, base) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var prog *core.Program
			for i := 0; i < b.N; i++ {
				var err error
				if prog, err = c.build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(prog.Nodes)), "nodes")
		})
	}
}

// BenchmarkRewrite measures the DAG Rewriting System (including the CSR
// compile it finishes with) on a large FW instance.
func BenchmarkRewrite(b *testing.B) {
	prog := fwProgram(b, 256, 8)
	b.ResetTimer()
	b.ReportAllocs()
	var g *core.Graph
	for i := 0; i < b.N; i++ {
		var err error
		g, err = core.Rewrite(prog)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Arrows)), "arrows")
}

// BenchmarkCompile isolates the compile step: lowering a rewritten event
// graph into the flat CSR ExecGraph.
func BenchmarkCompile(b *testing.B) {
	g := core.MustRewrite(fwProgram(b, 256, 8))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewExecGraph(g.P, g.Arrows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.Exec().NumVertices()), "vertices")
}

// BenchmarkCompileWake isolates the wake-graph collapse: contracting the
// relay vertices of a compiled event graph into the strand-level CSR the
// trackers run on. Paid once per ExecGraph, amortized across runs.
func BenchmarkCompileWake(b *testing.B) {
	g := core.MustRewrite(fwProgram(b, 256, 8))
	b.ResetTimer()
	b.ReportAllocs()
	var counters int
	for i := 0; i < b.N; i++ {
		b.StopTimer() // the CSR compile itself is measured by BenchmarkCompile
		eg, err := core.NewExecGraph(g.P, g.Arrows)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		counters = eg.Wake().NumCounters()
	}
	b.ReportMetric(float64(counters), "counters")
}

// fwSchedGraph is a large FW event graph with the strand bodies stripped,
// so runtime benchmarks measure scheduling and readiness propagation, not
// the numerics inside the strands.
func fwSchedGraph(b *testing.B, n, base int) *core.Graph {
	b.Helper()
	g := core.MustRewrite(fwProgram(b, n, base))
	for _, l := range g.P.Leaves {
		l.Run = nil
	}
	return g
}

// BenchmarkEngineRerun measures steady-state re-execution of one cached
// program on a long-lived engine: the program cache serves the compiled
// graph, the instance pool serves a generation-rewound tracker, and a run
// allocates nothing (the allocs/op column is the claim).
func BenchmarkEngineRerun(b *testing.B) {
	benchEngineRerun(b)
}

// BenchmarkEngineRerunUnguarded is the paired control for the failure
// model's overhead claim: the same cached FW-256/4 rerun with the panic
// recover wrapper disabled. The guarded/unguarded delta is the total
// per-strand price of panic containment (one branch plus one deferred
// recover per dispatched body) and must stay within 2% of this control.
func BenchmarkEngineRerunUnguarded(b *testing.B) {
	benchEngineRerun(b, exec.WithUnguardedBodies())
}

func benchEngineRerun(b *testing.B, opts ...exec.Option) {
	g := fwSchedGraph(b, 256, 4)
	p := g.P
	e := exec.NewEngine(0, opts...)
	defer e.Close()
	for i := 0; i < 3; i++ { // warm: compile cache, instance pool, deque growth
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	strands := float64(len(p.Leaves))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(strands*float64(b.N)/b.Elapsed().Seconds(), "strands/s")
}

// BenchmarkEngineRerunTraced is the tracing-enabled pair of
// BenchmarkEngineRerun: the same cached FW-256/4 rerun with a tracer
// armed, every dispatch/complete/steal/park recorded and each run's
// trace stitched, taken and recycled. The allocs/op column is the
// claim that armed tracing allocates nothing in the steady state (the
// event slabs reach capacity during warmup and are reused); the
// ns/op delta against BenchmarkEngineRerun prices the armed-tracer
// hot path.
func BenchmarkEngineRerunTraced(b *testing.B) {
	g := fwSchedGraph(b, 256, 4)
	p := g.P
	trc := telemetry.NewTracer()
	e := exec.NewEngine(0, exec.WithTracing(trc))
	defer e.Close()
	events := 0.0
	for i := 0; i < 3; i++ { // warm: caches, pools, trace slab capacity
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
		if tr := trc.TakeLast(); tr != nil {
			events = float64(len(tr.Events))
			trc.Recycle(tr)
		}
	}
	strands := float64(len(p.Leaves))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(p); err != nil {
			b.Fatal(err)
		}
		trc.Recycle(trc.TakeLast())
	}
	b.StopTimer()
	b.ReportMetric(strands*float64(b.N)/b.Elapsed().Seconds(), "strands/s")
	b.ReportMetric(events, "events/run")
}

// BenchmarkEngineThroughput drives one engine from ≥ 4 concurrent
// submitters re-running the same cached program; compare against
// BenchmarkEnginePerRunThroughput, which pays engine start plus tracker
// allocation on every run.
func BenchmarkEngineThroughput(b *testing.B) {
	g := fwSchedGraph(b, 256, 4)
	e := exec.NewEngine(4)
	defer e.Close()
	if err := e.Run(g.P); err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(4) // ≥ 4 submitter goroutines even on GOMAXPROCS=1
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := e.Run(g.P); err != nil {
				b.Error(err) // Fatal must not be called off the benchmark goroutine
				return
			}
		}
	})
}

// BenchmarkEnginePerRunThroughput is the engine-per-run baseline for
// BenchmarkEngineThroughput: the same concurrent submitters, each
// ndflow.Run call starting and closing a fresh 4-worker engine with its
// own deques and tracker.
func BenchmarkEnginePerRunThroughput(b *testing.B) {
	g := fwSchedGraph(b, 256, 4)
	b.SetParallelism(4)
	b.ResetTimer()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := ndflow.Run(g, 4); err != nil {
				b.Error(err) // Fatal must not be called off the benchmark goroutine
				return
			}
		}
	})
}

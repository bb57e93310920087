package main

import (
	"fmt"
	"math/rand"
	"time"

	ndflow "github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
)

// workload is one set of inputs the benchmark runs. README.md gives the
// reason each exists and what it should and should not move.
type workload struct {
	name  string
	setup func(cfg config) (*fixture, error)
}

var workloads = []workload{
	{"cold-mix", setupColdMix},
	{"warm-sched", setupWarmSched},
	{"live-lu", setupLiveLU},
	{"dyn-mix", setupDynMix},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// newRand is the benchmark's one source of generated inputs.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// buildProgram builds a warm workload's program, through traceSetup when
// the set-up is traced (l non-nil). The graph is nil when untraced.
func buildProgram(l *spanLog, build func() (*core.Program, error)) (*core.Program, *core.Graph, error) {
	if l == nil {
		p, err := build()
		return p, nil, err
	}
	return traceSetup(l, build)
}

// traceSetup times, in a traced set-up, the front end a warm workload
// pays once for the program it reuses: the build, the DRS rewrite (CSR
// compile included), the wake collapse and an instance, then the CSR
// compile again on its own, then the allocation counts. The graph it
// returns is the benchmark's; the engine rewrites its own copy on first
// submission.
func traceSetup(l *spanLog, build func() (*core.Program, error)) (*core.Program, *core.Graph, error) {
	root := l.op("setup")
	defer l.end(root)
	s := l.begin("build", root)
	p, err := build()
	l.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = l.begin("core.rewrite", root)
	g, err := ndflow.Rewrite(p)
	l.end(s)
	if err != nil {
		return nil, nil, err
	}
	s = l.begin("core.wake", root)
	eg := g.Exec()
	eg.Wake()
	l.end(s)
	s = l.begin("exec.instance", root)
	exec.NewInstance(eg)
	l.end(s)
	if err := timeCompile(l, g); err != nil {
		return nil, nil, err
	}
	noteGraph(l, g)
	return p, g, countAllocs(l, build)
}

// countAllocs records, as notes, the heap objects one build and one
// rewrite allocate. The counts repeat exactly for a given program, so
// they are taken once per program rather than inside timed ops.
func countAllocs(l *spanLog, build func() (*core.Program, error)) error {
	m0 := mallocs()
	p, err := build()
	m1 := mallocs()
	if err != nil {
		return err
	}
	_, err = ndflow.Rewrite(p)
	m2 := mallocs()
	l.note("build.allocs", float64(m1-m0))
	l.note("core.rewrite_allocs", float64(m2-m1))
	return err
}

// timeCompile re-invokes the CSR compile on a rewritten graph, as a root
// span of its own outside the op.
func timeCompile(l *spanLog, g *core.Graph) error {
	s := l.begin("core.compile", -1)
	_, err := core.NewExecGraph(g.P, g.Arrows)
	l.end(s)
	return err
}

// noteGraph records the graph's shape for the current op.
func noteGraph(l *spanLog, g *core.Graph) {
	l.note("strands", float64(len(g.P.Leaves)))
	l.note("arrows", float64(len(g.Arrows)))
	l.note("parallelism", g.Parallelism())
}

// timeOp times one op. A traced op is an "op" span holding one span
// named layer around the call.
func timeOp(l *spanLog, layer string, op func() error) sample {
	if l == nil {
		t0 := time.Now()
		err := op()
		return sample{at: t0, lat: time.Since(t0), err: err}
	}
	root := l.op("op")
	s := l.begin(layer, root)
	err := op()
	l.end(s)
	lat := l.end(root)
	return sample{at: l.epoch.Add(l.spans[root].start), lat: lat, err: err}
}

// serialBound is the bound report of a workload whose ops all run one
// graph: every op's W is the serial elision's median time over the
// "matrix.kernel" spans, and its run interval is the op's own. Only ops
// of the given class count.
func serialBound(rep *layerReport, g *core.Graph, flops float64, class int) {
	self, _ := rep.spanStats()
	w := 0.0
	if ks := self["matrix.kernel"]; len(ks) > 0 {
		w = median(ks)
	}
	cp := w * float64(g.Span()) / float64(g.P.Work())
	var ops []boundOp
	for _, s := range rep.win.samples {
		if s.class == class && s.err == nil {
			start := s.at.Sub(rep.win.epoch)
			ops = append(ops, boundOp{w: w, cp: cp, strands: float64(len(g.P.Leaves)), flops: flops,
				run: interval{start, start + s.lat}})
		}
	}
	rep.bound(ops)
}

// timeElision times the serial elision of g on restored inputs as a
// "matrix.kernel" span outside the op: the op's work W. The elision's
// output is checked too.
func timeElision(l *spanLog, g *core.Graph, restore func(), check func() error) (time.Duration, error) {
	restore()
	s := l.begin("matrix.kernel", -1)
	err := ndflow.RunSerial(g)
	w := l.end(s)
	if err == nil {
		err = check()
	}
	if err != nil {
		return w, fmt.Errorf("serial elision: %w", err)
	}
	return w, nil
}

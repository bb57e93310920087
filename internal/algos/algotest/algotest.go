// Package algotest is the shared verification harness for the algorithm
// reproductions. For an algorithm instance it checks, in both models:
//
//   - the DRS produces an acyclic DAG whose arrows are forward in
//     serial-elision order;
//   - every true data dependency (from strand footprints) is enforced by
//     the DAG (the fire rules are complete);
//   - executing the strands in serial-elision order, in a deterministic
//     adversarial order, in randomized topological orders, through the
//     public ndflow.Run on a throwaway 4-worker engine and on a
//     long-lived engine all produce the reference result;
//   - the ND tree has the same work as the NP tree (the spawn tree is
//     unchanged) and no larger span.
package algotest

import (
	"testing"

	"github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/deps"
	"github.com/ndflow/ndflow/internal/exec"
)

// Factory builds a fresh instance of an algorithm in the given model and
// returns the frozen program along with a check function that verifies the
// computed result against a serial reference. Every call must allocate
// fresh data (programs execute in place).
type Factory func(model algos.Model) (prog *core.Program, check func() error, err error)

// RunSuite runs the full verification suite for the factory.
func RunSuite(t *testing.T, f Factory) {
	t.Helper()
	for _, model := range []algos.Model{algos.NP, algos.ND} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			t.Run("coverage", func(t *testing.T) { checkCoverage(t, f, model) })
			t.Run("elision", func(t *testing.T) {
				runAndCheck(t, f, model, func(g *core.Graph) error { return exec.RunElision(g) })
			})
			t.Run("reverse", func(t *testing.T) {
				runAndCheck(t, f, model, func(g *core.Graph) error { return exec.RunReverseGreedy(g) })
			})
			for seed := int64(1); seed <= 3; seed++ {
				seed := seed
				t.Run("random", func(t *testing.T) {
					runAndCheck(t, f, model, func(g *core.Graph) error { return exec.RunRandomTopo(g, seed) })
				})
			}
			t.Run("parallel", func(t *testing.T) {
				runAndCheck(t, f, model, func(g *core.Graph) error { return ndflow.Run(g, 4) })
			})
			t.Run("engine", func(t *testing.T) {
				e := exec.NewEngine(4)
				defer e.Close()
				runAndCheck(t, f, model, func(g *core.Graph) error {
					r, err := e.Submit(g)
					if err != nil {
						return err
					}
					return r.Wait()
				})
			})
		})
	}
	t.Run("work-and-span", func(t *testing.T) { checkWorkSpan(t, f) })
}

func build(t *testing.T, f Factory, model algos.Model) (*core.Program, func() error, *core.Graph) {
	t.Helper()
	prog, check, err := f(model)
	if err != nil {
		t.Fatalf("build %s: %v", model, err)
	}
	g, err := core.Rewrite(prog)
	if err != nil {
		t.Fatalf("rewrite %s: %v", model, err)
	}
	return prog, check, g
}

func checkCoverage(t *testing.T, f Factory, model algos.Model) {
	t.Helper()
	_, _, g := build(t, f, model)
	rep, err := deps.Check(g)
	if err != nil {
		t.Fatalf("deps.Check: %v", err)
	}
	if !rep.Ok() {
		max := len(rep.Violations)
		if max > 8 {
			max = 8
		}
		for _, v := range rep.Violations[:max] {
			t.Errorf("uncovered dependency: %v", v)
		}
		t.Fatalf("%s model: %d of %d true dependencies not enforced by the DAG (%s)",
			model, len(rep.Violations), rep.Conflicts, rep)
	}
}

func runAndCheck(t *testing.T, f Factory, model algos.Model, run func(*core.Graph) error) {
	t.Helper()
	_, check, g := build(t, f, model)
	if err := run(g); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := check(); err != nil {
		t.Fatalf("result check: %v", err)
	}
}

func checkWorkSpan(t *testing.T, f Factory) {
	t.Helper()
	np, _, gNP := build(t, f, algos.NP)
	nd, _, gND := build(t, f, algos.ND)
	if np.Work() != nd.Work() {
		t.Errorf("work differs: NP %d vs ND %d (the ND model must not change the spawn tree's leaves)", np.Work(), nd.Work())
	}
	if sNP, sND := gNP.Span(), gND.Span(); sND > sNP {
		t.Errorf("ND span %d exceeds NP span %d (fire constructs only remove dependencies)", sND, sNP)
	}
}

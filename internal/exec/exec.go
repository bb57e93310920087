// Package exec runs ND programs for real: strand closures are executed in
// an order consistent with the algorithm DAG. Every worker pool is an
// Engine (engine.go): a long-lived work stealer whose flat, locality,
// critical-path and relaxed policies share one worker loop. This file
// holds the serial drivers next to it: the serial elision, a randomized
// and a reverse-greedy topological order (adversarial oracles for the
// fire rules), and the replay of the compiled serial schedule that a
// one-worker pool degenerates to.
package exec

import (
	"fmt"
	"math/rand"
	"runtime/debug"

	"github.com/ndflow/ndflow/internal/core"
)

// guardBody runs one strand body under the panic guard shared by every
// serial driver in this file, converting a panic into the same
// *StrandPanicError the engine returns — error behavior is identical
// across drivers and engines.
func guardBody(id int32, label string, body func()) *StrandPanicError {
	var perr *StrandPanicError
	func() {
		defer func() {
			if p := recover(); p != nil {
				perr = &StrandPanicError{Strand: id, Label: label, Value: p, Stack: debug.Stack()}
			}
		}()
		body()
	}()
	return perr
}

// RunElision executes the program's strands in serial-elision (left-to-
// right) order, verifying along the way that the elision is a legal
// schedule of the DAG (it is, for every valid ND program).
func RunElision(g *core.Graph) error {
	t := core.NewTracker(g)
	for i, leaf := range g.P.Leaves {
		if leaf.Run != nil {
			if perr := guardBody(int32(i), leaf.Label, leaf.Run); perr != nil {
				return perr
			}
		}
		if err := t.Complete(leaf); err != nil {
			return err
		}
	}
	if !t.Done() {
		return fmt.Errorf("exec: elision finished with %d of %d strands executed", t.Executed(), len(g.P.Leaves))
	}
	return nil
}

// RunRandomTopo executes the strands in a uniformly random legal
// topological order drawn from the DAG. Running an ND algorithm this way
// and comparing against its serial reference is the strongest correctness
// test of a rule set: any missing dependency eventually produces a
// mis-ordered execution and a wrong result.
func RunRandomTopo(g *core.Graph, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	eg := g.Exec()
	t := core.NewTracker(g)
	pool := t.TakeReadyIDs(nil)
	for len(pool) > 0 {
		i := r.Intn(len(pool))
		id := pool[i]
		pool[i] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if leaf := eg.Strand(id); leaf.Run != nil {
			if perr := guardBody(id, leaf.Label, leaf.Run); perr != nil {
				return perr
			}
		}
		if err := t.CompleteID(id); err != nil {
			return err
		}
		pool = t.TakeReadyIDs(pool)
	}
	if !t.Done() {
		return fmt.Errorf("exec: random topo order stalled at %d of %d strands (DAG deadlock)", t.Executed(), len(g.P.Leaves))
	}
	return nil
}

// RunReverseGreedy executes strands by always picking the ready strand
// with the greatest leaf index: the schedule furthest from the serial
// elision. Useful as a deterministic adversarial order.
func RunReverseGreedy(g *core.Graph) error {
	eg := g.Exec()
	t := core.NewTracker(g)
	pool := t.TakeReadyIDs(nil)
	for len(pool) > 0 {
		best := 0
		for i, id := range pool {
			if id > pool[best] {
				best = i
			}
		}
		id := pool[best]
		pool[best] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if leaf := eg.Strand(id); leaf.Run != nil {
			if perr := guardBody(id, leaf.Label, leaf.Run); perr != nil {
				return perr
			}
		}
		if err := t.CompleteID(id); err != nil {
			return err
		}
		pool = t.TakeReadyIDs(pool)
	}
	if !t.Done() {
		return fmt.Errorf("exec: reverse-greedy order stalled at %d of %d strands", t.Executed(), len(g.P.Leaves))
	}
	return nil
}

// RunTopoStrands replays the schedule banked at compile time: the
// topological order of strand starts (ExecGraph.TopoStrands). The compile
// step already proved the DAG acyclic, so the replay needs no readiness
// bookkeeping and allocates nothing per run. It is what a one-worker pool
// degenerates to, and ndflow.Run uses it for one worker.
func RunTopoStrands(g *core.Graph) error {
	eg := g.Exec()
	order := eg.TopoStrands()
	for _, id := range order {
		if leaf := eg.Strand(id); leaf.Run != nil {
			if perr := guardBody(id, leaf.Label, leaf.Run); perr != nil {
				return perr
			}
		}
	}
	if len(order) != eg.NumStrands() {
		return fmt.Errorf("exec: compiled schedule covers %d of %d strands", len(order), eg.NumStrands())
	}
	return nil
}

package dyn

import (
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
)

// This file bridges the compiled world into the dynamic one: any compiled
// ExecGraph can be replayed through Spawn/SpawnAfter/Put as if the
// program had been written against the online API, with one future per
// strand carrying the dependency edges. The bridge is what lets the
// differential-test wall hold the dynamic runtime to the same standard as
// the compiled runtimes — bit-identical outputs on every algorithm —
// and what the dyn-vs-compiled benchmarks are built on.

// StrandDeps computes each strand's direct firing predecessors: strand u
// is in deps[v] exactly when the event graph contains a path
// end(u) → … → start(v) through internal (non-strand) vertices only —
// the same dependency the wake-graph collapse routes to v's ready gate.
// A strand with no predecessors is initially ready. The walk is a
// per-strand reverse BFS that stops at strand end vertices, so it visits
// only the relay region between strands.
func StrandDeps(eg *core.ExecGraph) [][]int32 {
	n := eg.NumStrands()
	deps := make([][]int32, n)
	seen := make([]int32, eg.NumVertices())
	seenStrand := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for i := range seenStrand {
		seenStrand[i] = -1
	}
	var stack []int32
	for s := 0; s < n; s++ {
		stamp := int32(s)
		start := eg.StrandStart(int32(s))
		seen[start] = stamp
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range eg.Pred(v) {
				if seen[u] == stamp {
					continue
				}
				seen[u] = stamp
				if t := eg.VertexStrand(u); t >= 0 && eg.IsEnd(u) {
					if seenStrand[t] != stamp {
						seenStrand[t] = stamp
						deps[s] = append(deps[s], t)
					}
					continue
				}
				stack = append(stack, u)
			}
		}
	}
	return deps
}

// replayBlock is the spawn fan-out width of Replay: the root hands
// contiguous strand ranges to child spawner tasks so registration itself
// parallelizes instead of serializing on the root strand.
const replayBlock = 64

// Replay returns a root task that executes the compiled graph's strand
// closures through the dynamic API: one future per strand, resolved on
// completion; every strand spawned with SpawnFor gated on its firing
// predecessors' futures (deps from StrandDeps, precomputed so repeated
// replays of one graph amortize the analysis). Scheduling decisions are
// made online by the dynamic runtime — nothing of the compiled wake
// graph is consulted during the run. One shared strand body serves every
// task and each block spawner reuses one dependency scratch slice, so the
// per-strand allocation cost is the future cell alone (one slab per run).
func Replay(eg *core.ExecGraph, deps [][]int32) Task {
	n := eg.NumStrands()
	// Flatten the strand bodies once: the per-task hot path then costs a
	// single slice load instead of walking eg's leaf table on every run.
	runs := make([]func(), n)
	for s := 0; s < n; s++ {
		runs[s] = eg.Strand(int32(s)).Run
	}
	return func(c *Context) {
		// In replay mode the cells are dead weight: the closures below are
		// only hashed (never run), so skip the big allocation. The code
		// pointers — all the verification hash sees of them — do not
		// depend on the captured slice.
		var cells []Future
		if !c.Replaying() {
			cells = make([]Future, n)
		}
		strand := func(c *Context, s int64) {
			if fn := runs[s]; fn != nil {
				fn()
			}
			if c.Replaying() {
				// The cells carry no values (pure sync tokens), so the
				// replayed Put reduces to its shape-hash contribution —
				// this mix must stay identical to Put's replay branch.
				c.rh = mix2(c.rh, opPut)
				return
			}
			cells[s].Put(c, nil)
		}
		block := func(c *Context, lo int64) {
			hi := int(lo) + replayBlock
			if hi > n {
				hi = n
			}
			if c.Replaying() {
				// Shape verification only (see jit.go): mix the same
				// spawn events the live loop below produces.
				pc := pcOf(strand)
				for s := int(lo); s < hi; s++ {
					c.rh = mixSpawnV(c.rh, opSpawnFor, int64(s), len(deps[s]), pc)
				}
				return
			}
			// Charge the join guard for the whole batch with one atomic
			// add; children come straight from the slab-backed pool.
			fr := c.fr
			r := fr.run
			fr.kids.Add(int32(hi - int(lo)))
			var scratch []*Future
			for s := int(lo); s < hi; s++ {
				scratch = scratch[:0]
				for _, p := range deps[s] {
					scratch = append(scratch, &cells[p])
				}
				child := r.takeFrame(fr.w)
				child.xfn, child.x = strand, int64(s)
				child.parent = fr
				if r.observing {
					r.observeSpawn(fr, child, opSpawnFor, int64(s), len(scratch), strand)
				}
				c.gate(child, scratch)
			}
		}
		for lo := 0; lo < n; lo += replayBlock {
			c.SpawnFor(block, int64(lo))
		}
	}
}

// RunGraph replays a compiled event graph on the engine through the
// dynamic API (StrandDeps + Replay + Run): the convenience entry point
// for differential tests and serving-mode comparisons.
func RunGraph(e *exec.Engine, g *core.Graph) error {
	eg := g.Exec()
	return Run(e, Replay(eg, StrandDeps(eg)))
}

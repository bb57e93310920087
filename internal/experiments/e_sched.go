package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/metrics"
	"github.com/ndflow/ndflow/internal/pmh"
	"github.com/ndflow/ndflow/internal/sched/spacebound"
	"github.com/ndflow/ndflow/internal/sched/worksteal"
	"github.com/ndflow/ndflow/internal/sim"
)

func init() {
	register("E4", e4Theorem1)
	register("E5", e5Theorem3)
	register("E7", e7Schedulers)
	register("E9", e9Runtime)
}

// hierarchy returns the 3-level PMH used by the scheduling experiments:
// private L1s, L2s shared by pairs, l3 top caches under memory, with
// miss costs 1/10/100 and memory cost 1000.
func hierarchy(l3 int) pmh.Spec {
	return pmh.Spec{
		ProcsPerL1: 1,
		Caches: []pmh.CacheSpec{
			{Size: 128, Fanout: 2, MissCost: 1},
			{Size: 1024, Fanout: 2, MissCost: 10},
			{Size: 4096, Fanout: l3, MissCost: 100},
		},
		MemMissCost: 1000,
	}
}

func simulate(g *core.Graph, spec pmh.Spec, sched sim.Scheduler) (*sim.Result, error) {
	m, err := pmh.New(spec)
	if err != nil {
		return nil, err
	}
	return sim.Run(g, m, sched)
}

// e4Theorem1 verifies Theorem 1 by measurement: with the SB scheduler at
// dilation σ, the misses at every level j stay below Q*(t; σ·Mj).
func e4Theorem1(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Theorem 1: SB cache misses at level j vs the bound Q*(t;σMj)",
		Columns: []string{"algorithm", "level", "Mj", "misses", "Q*(t;σMj)", "misses/bound", "≤1.05"},
	}
	spec := hierarchy(2)
	sigma := 1.0 / 3
	n := 64
	if cfg.Quick {
		n = 32
	}
	for _, name := range []string{"MM", "TRS", "Cholesky", "LCS", "FW-1D"} {
		b, err := BuilderByName(name)
		if err != nil {
			return nil, err
		}
		g, err := b.Build(algos.ND, n, 4)
		if err != nil {
			return nil, err
		}
		res, err := simulate(g, spec, spacebound.New(spacebound.Config{Sigma: sigma}))
		if err != nil {
			return nil, err
		}
		for j, cache := range spec.Caches {
			bound := metrics.PCC(g.P, int64(sigma*float64(cache.Size)))
			ratio := float64(res.Misses[j]) / float64(bound)
			t.AddRow(name, j+1, cache.Size, res.Misses[j], bound, ratio, ratio <= 1.05)
		}
	}
	t.Note("n=%d, σ=1/3, 3-level PMH with %d processors", n, spec.Processors())
	t.Note("the theorem's exact ≤1 bound assumes reserved cache space; our simulator runs real LRU caches and")
	t.Note("progress-guarantee fallbacks when caches saturate, which can add a few percent at the top level")
	return t, nil
}

// e5Theorem3 reproduces the running-time guarantee (Theorem 3 / Eq. 22):
// simulated makespan versus the perfectly load-balanced cost
// Σ_i Q*(t;σMi)·Ci / p across machine widths, for TRS in both models.
// The ND overhead factor stays flat as p grows; the NP one degrades once
// the machine's parallelism exceeds the NP algorithm's parallelizability.
func e5Theorem3(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Theorem 3: makespan vs balanced bound Σ Q*(t;σMi)·Ci/p (TRS)",
		Columns: []string{"model", "p", "makespan", "balanced bound", "overhead", "speedup vs p=2"},
	}
	n := 64
	widths := []int{1, 2, 4, 8}
	if cfg.Quick {
		n = 32
		widths = []int{1, 2, 4}
	}
	sigma := 1.0 / 3
	b, err := BuilderByName("TRS")
	if err != nil {
		return nil, err
	}
	for _, model := range []algos.Model{algos.NP, algos.ND} {
		var first int64
		for _, l3 := range widths {
			spec := hierarchy(l3)
			g, err := b.Build(model, n, 4)
			if err != nil {
				return nil, err
			}
			res, err := simulate(g, spec, spacebound.New(spacebound.Config{Sigma: sigma}))
			if err != nil {
				return nil, err
			}
			// Eq. 22 with this machine's cost decomposition: an access
			// missing at level j pays Cj on its way up, so the balanced
			// cost is (T1 + Σ_j Q*(σMj)·Cj + Q*(σM_top)·C_mem) / p.
			p := float64(spec.Processors())
			bound := float64(g.P.Work())
			for j, cache := range spec.Caches {
				q := metrics.PCC(g.P, int64(sigma*float64(cache.Size)))
				bound += float64(q) * float64(cache.MissCost)
				if j == len(spec.Caches)-1 {
					bound += float64(q) * float64(spec.MemMissCost)
				}
			}
			bound /= p
			if first == 0 {
				first = res.Makespan
			}
			t.AddRow(model.String(), spec.Processors(), res.Makespan, int64(bound),
				float64(res.Makespan)/bound, float64(first)/float64(res.Makespan))
		}
	}
	t.Note("n=%d; bound charges work/p plus Q*(t;σMi)·Ci/p per level (Eq. 22)", n)
	t.Note("the paper predicts ND sustains near-optimal time to larger p than NP for TRS (§4)")
	return t, nil
}

// e7Schedulers compares work stealing and space-bounded scheduling on the
// same machine: per-level misses and makespan (§5 motivation, [47, 48]).
func e7Schedulers(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Work stealing vs space-bounded: locality at shared caches",
		Columns: []string{"algorithm", "scheduler", "L1 misses", "L2 misses", "L3 misses", "makespan", "util"},
	}
	n := 64
	if cfg.Quick {
		n = 32
	}
	spec := hierarchy(2)
	for _, name := range []string{"MM", "TRS", "LCS"} {
		b, err := BuilderByName(name)
		if err != nil {
			return nil, err
		}
		for _, which := range []string{"WS", "SB"} {
			g, err := b.Build(algos.ND, n, 4)
			if err != nil {
				return nil, err
			}
			var sched sim.Scheduler
			if which == "WS" {
				sched = worksteal.New(11)
			} else {
				sched = spacebound.New(spacebound.Config{})
			}
			res, err := simulate(g, spec, sched)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, which, res.Misses[0], res.Misses[1], res.Misses[2], res.Makespan,
				fmt.Sprintf("%.2f", res.Utilization()))
		}
	}
	t.Note("n=%d on a 3-level PMH with %d processors; SB should reduce shared-level (L2/L3) misses", n, spec.Processors())
	return t, nil
}

// e9Runtime exercises the real goroutine runtime: wall-clock speedup of
// the work-stealing engine over a one-worker engine for ND TRS and LCS.
func e9Runtime(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Real goroutine runtime: wall-clock scaling of ND programs",
		Columns: []string{"algorithm", "workers", "time", "speedup"},
	}
	n, base := 256, 32
	if cfg.Quick {
		n, base = 128, 16
	}
	maxWorkers := runtime.NumCPU()
	if maxWorkers > 8 {
		maxWorkers = 8
	}
	for _, name := range []string{"TRS", "LCS"} {
		b, err := BuilderByName(name)
		if err != nil {
			return nil, err
		}
		var t1 time.Duration
		workerCounts := []int{1, 2, maxWorkers}
		if maxWorkers <= 2 {
			workerCounts = []int{1, maxWorkers}
		}
		for _, workers := range workerCounts {
			g, err := b.Build(algos.ND, n, base)
			if err != nil {
				return nil, err
			}
			elapsed, err := timeOnEngine(g, workers)
			if err != nil {
				return nil, err
			}
			if workers == 1 {
				t1 = elapsed
			}
			t.AddRow(name, workers, elapsed.Round(time.Microsecond).String(),
				float64(t1)/float64(elapsed))
		}
	}
	t.Note("n=%d base=%d; wall-clock times are machine dependent", n, base)
	return t, nil
}

// timeOnEngine runs g once on a fresh engine of the given size and
// returns the wall time of the run alone: worker spawn and shutdown stay
// outside the clock.
func timeOnEngine(g *core.Graph, workers int) (time.Duration, error) {
	e := exec.NewEngine(workers)
	defer e.Close()
	start := time.Now()
	r, err := e.SubmitInstance(exec.NewInstance(g.Exec()))
	if err != nil {
		return 0, err
	}
	if err := r.Wait(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

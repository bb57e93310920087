package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	ndflow "github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/dyn"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// dyn-mix: each submitter replays its own live FW-1D-128/4 (1,024
// strands) through the JIT, and one op in four is a memoized fib over
// futures with n drawn from [fibMin, fibMax].
const (
	dynN, dynBase  = 128, 4
	dynSubmitters  = 2
	fibMin, fibMax = 24, 40
)

// dyn-mix's two op classes.
const (
	classJIT = iota
	classLive
)

// dynPlan is one submitter's seeded op stream.
type dynPlan struct{ rng *rand.Rand }

// next returns the next op: classJIT, or classLive with fib's argument.
func (p *dynPlan) next() (class, n int) {
	if p.rng.Intn(4) != 0 {
		return classJIT, 0
	}
	return classLive, fibMin + p.rng.Intn(fibMax-fibMin+1)
}

// dynLane is one submitter's JIT program over its own FW instance: the
// engine's contract is that concurrent live bodies must not share data.
type dynLane struct {
	inst     *fw.Instance
	pristine *matrix.Matrix // input row, zero table below it
	want     *matrix.Matrix
	graph    *core.Graph
	prog     *ndflow.DynProgram
	plan     *dynPlan
}

func (ln *dynLane) restore() { ln.inst.Table.CopyFrom(ln.pristine) }

func (ln *dynLane) check(plant bool) error {
	return compare("FW table", ln.inst.Table, ln.want, 0, plant)
}

func setupDynMix(cfg config) (*fixture, error) {
	rng := newRand(cfg.seed)
	var setupLog *spanLog
	if cfg.trace {
		setupLog = newSpanLog(time.Now(), -1)
	}
	e := ndflow.NewEngine(0)
	lanes := make([]*dynLane, dynSubmitters)
	for i := range lanes {
		l := setupLog
		if i > 0 {
			l = nil // a traced set-up times the first lane's front end
		}
		ln, err := newDynLane(e, rng.Int63(), rng.Int63(), l)
		if err != nil {
			e.Close()
			return nil, err
		}
		lanes[i] = ln
	}
	capMisses := func() uint64 {
		var n uint64
		for _, ln := range lanes {
			n += ln.prog.Stats().CapacityMisses
		}
		return n
	}
	misses0 := capMisses()
	fx := &fixture{
		submitters: dynSubmitters,
		engines:    []*ndflow.Engine{e},
		setupLog:   setupLog,
		step: func(sub int, l *spanLog, plant bool) sample {
			ln := lanes[sub]
			class, n := ln.plan.next()
			if class == classJIT {
				ln.restore()
				smp := timeOp(l, "dyn.jit", func() error { return ln.prog.Run(e) })
				smp.class = classJIT
				if smp.err == nil {
					smp.err = ln.check(plant)
				}
				return smp
			}
			var got int64
			smp := timeOp(l, "dyn.live", func() (err error) {
				got, err = fib(e, n)
				return err
			})
			smp.class = classLive
			if plant {
				got++
			}
			if want := fibClosed(n); smp.err == nil && got != want {
				smp.err = fmt.Errorf("fib(%d) = %d, want %d", n, got, want)
			}
			return smp
		},
		close: e.Close,
	}
	if cfg.trace {
		ln := lanes[0]
		fx.tailShare = 0.1
		fx.tail = func(budget time.Duration, rep *layerReport) error {
			// The serial elision runs here, after the window, so it does
			// not share the CPUs with the other submitter's ops.
			deadline := time.Now().Add(budget)
			for i := 0; i < 5 || time.Now().Before(deadline); i++ {
				if _, err := timeElision(rep.tailLog, ln.graph, ln.restore, func() error { return ln.check(false) }); err != nil {
					return err
				}
			}
			return nil
		}
		fx.layers = func(rep *layerReport) {
			d := rep.win.delta
			var jit, live float64
			for _, s := range rep.win.samples {
				if s.class == classJIT {
					jit++
				} else {
					live++
				}
			}
			if jit > 0 {
				rep.set("dyn.jit_hit_ratio", float64(d.Get(telemetry.MJITHits))/jit)
			}
			if live > 0 {
				rep.set("dyn.parks_per_op", float64(d.Get(telemetry.MDynParks))/live)
				rep.set("dyn.donations_per_op", float64(d.Get(telemetry.MDynDonations))/live)
			}
			rep.set("dyn.divergences", float64(d.Get(telemetry.MJITDivergences)))
			rep.set("dyn.capacity_misses", float64(capMisses()-misses0))
			serialBound(rep, ln.graph, 0, classJIT)
		}
	}
	return fx, nil
}

// newDynLane builds a submitter's FW instance and its JIT program, and
// warms the program past the observe/record ladder so every op that
// finds a free binding replays compiled. A non-nil l times its front end.
func newDynLane(e *ndflow.Engine, instSeed, planSeed int64, l *spanLog) (*dynLane, error) {
	inst := fw.NewInstance(matrix.NewSpace(), dynN, instSeed)
	ln := &dynLane{inst: inst, pristine: inst.Table.Copy(nil), plan: &dynPlan{newRand(planSeed)}}
	ref := fw.NewInstance(matrix.NewSpace(), dynN, instSeed)
	ref.Serial()
	ln.want = ref.Table
	p, g, err := buildProgram(l, func() (*core.Program, error) { return fw.New(algos.ND, inst, dynBase) })
	if err == nil && g == nil {
		g, err = ndflow.Rewrite(p)
	}
	if err != nil {
		return nil, err
	}
	ln.graph = g
	eg := ln.graph.Exec()
	ln.prog = ndflow.NewDynProgram(dyn.Replay(eg, dyn.StrandDeps(eg)))
	for i := 0; i < 6; i++ { // observe ×2, record, then warm replays
		ln.restore()
		if err := ln.prog.Run(e); err != nil {
			return nil, fmt.Errorf("JIT warm-up: %w", err)
		}
		if err := ln.check(false); err != nil {
			return nil, fmt.Errorf("JIT warm-up: %w", err)
		}
	}
	if !ln.prog.Compiled() {
		return nil, fmt.Errorf("JIT warm-up left the program uncompiled: %+v", ln.prog.Stats())
	}
	return ln, nil
}

// fib is examples/fib's memoized recursion: each subproblem's future is
// claimed once, and its solver task spawns the solvers it needs and
// parks on their futures before resolving its own. It always runs live.
func fib(e *ndflow.Engine, n int) (int64, error) {
	var mu sync.Mutex
	cells := make(map[int]*ndflow.Future, n+1)
	var solve func(c *ndflow.TaskContext, k int) *ndflow.Future
	solve = func(c *ndflow.TaskContext, k int) *ndflow.Future {
		mu.Lock()
		f := cells[k]
		claimed := f == nil
		if claimed {
			f = ndflow.NewFuture()
			cells[k] = f
		}
		mu.Unlock()
		if claimed {
			c.Spawn(func(c *ndflow.TaskContext) {
				if k < 2 {
					f.Put(c, int64(k))
					return
				}
				a := solve(c, k-1).Get(c).(int64)
				b := solve(c, k-2).Get(c).(int64)
				f.Put(c, a+b)
			})
		}
		return f
	}
	var result int64
	err := ndflow.RunDynamic(e, func(c *ndflow.TaskContext) {
		result = solve(c, n).Get(c).(int64)
	})
	return result, err
}

// fibClosed is Binet's closed form, exact in float64 for n ≤ 70.
func fibClosed(n int) int64 {
	phi := (1 + math.Sqrt(5)) / 2
	return int64(math.Round(math.Pow(phi, float64(n)) / math.Sqrt(5)))
}

package main

import (
	"fmt"
	"sync/atomic"
	"time"

	ndflow "github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/fw"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// warm-sched's program is nil-body FW-1D-256/4, 4,096 strands. Its
// window is spread over warmEngines engines; a traced run spends
// warmTailShare of its seconds on the armed-tracer comparison.
const (
	warmN         = 256
	warmBase      = 4
	warmEngines   = 32
	warmTailShare = 0.25
)

func setupWarmSched(cfg config) (*fixture, error) {
	var l *spanLog
	if cfg.trace {
		l = newSpanLog(time.Now(), -1)
	}
	p, g, err := buildProgram(l, func() (*core.Program, error) {
		return fw.New(algos.ND, fw.NewInstance(matrix.NewSpace(), warmN, cfg.seed), warmBase)
	})
	if err != nil {
		return nil, err
	}
	for _, leaf := range p.Leaves {
		leaf.Run = nil // no kernels: every op is pure scheduling
	}
	// The window rotates through several engines, all ops of both
	// submitters on the current one. An engine's latency here is bimodal:
	// about one engine in eight runs this workload ~1.5× faster for its
	// whole life, so one engine per run would make the run's figures a
	// lottery.
	engines := make([]*ndflow.Engine, warmEngines)
	closeAll := func() {
		for _, e := range engines {
			if e != nil {
				e.Close()
			}
		}
	}
	for i := range engines {
		engines[i] = ndflow.NewEngine(0)
		if err := warmUp(engines[i], p, 2); err != nil {
			closeAll()
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
	}
	window := cfg.seconds
	if cfg.trace {
		window *= 1 - warmTailShare
	}
	segment := time.Duration(window * float64(time.Second) / warmEngines)
	var start atomic.Int64 // the window's first op, in unix ns
	fx := &fixture{
		submitters: 2,
		engines:    engines,
		setupLog:   l,
		step: func(_ int, l *spanLog, _ bool) sample {
			now := time.Now().UnixNano()
			start.CompareAndSwap(0, now)
			e := engines[int(time.Duration(now-start.Load())/segment)%warmEngines]
			return timeOp(l, "exec.run", func() error { return e.Run(p) })
		},
		// Nil bodies have no output; each op's check is its nil Wait, and
		// the window's is that the engines retired exactly one run per op.
		verify: func(d telemetry.Snapshot, ops int) int {
			runs, failed := int(d.Get(telemetry.MRuns)), int(d.Get(telemetry.MRunsFailed))
			return max(abs(runs-ops), failed)
		},
		close: closeAll,
	}
	if cfg.trace {
		fx.tailShare = warmTailShare
		fx.tail = func(budget time.Duration, rep *layerReport) error { return armedTail(engines[0], p, budget, rep) }
		fx.layers = func(rep *layerReport) { serialBound(rep, g, 0, 0) }
	}
	return fx, nil
}

// armedTail prices the armed tracer: one submitter alternates runs on
// the measured engine with runs on a second engine armed with
// WithTracing, taking and recycling each run's trace, and compares the
// medians.
func armedTail(e *ndflow.Engine, p *core.Program, budget time.Duration, rep *layerReport) error {
	tr := ndflow.NewTracer()
	armed := ndflow.NewEngine(e.Workers(), ndflow.WithTracing(tr))
	defer armed.Close()
	var plain, traced []float64
	var events float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		if err := e.Run(p); err != nil {
			return err
		}
		t1 := time.Now()
		if err := armed.Run(p); err != nil {
			return err
		}
		t2 := time.Now()
		run := tr.TakeLast()
		if run == nil {
			return fmt.Errorf("armed engine returned no trace")
		}
		if i >= 3 { // the first pairs warm the armed engine up
			plain = append(plain, ms(t1.Sub(t0)))
			traced = append(traced, ms(t2.Sub(t1)))
			events += float64(len(run.Events))
		}
		tr.Recycle(run)
	}
	if len(plain) == 0 {
		return nil
	}
	rep.set("telemetry.armed_ratio", median(traced)/median(plain))
	rep.set("telemetry.events_per_op", events/float64(len(traced)))
	return nil
}

// warmUp runs p once, cold, then twice submits inFlight runs of it
// together, so the instance pool holds one instance per submitter.
func warmUp(e *ndflow.Engine, p *core.Program, inFlight int) error {
	if err := e.Run(p); err != nil {
		return err
	}
	for round := 0; round < 2; round++ {
		runs := make([]*ndflow.Submission, 0, inFlight)
		for i := 0; i < inFlight; i++ {
			r, err := e.SubmitProgram(p)
			if err != nil {
				return err
			}
			runs = append(runs, r)
		}
		for _, r := range runs {
			if err := r.Wait(); err != nil {
				return err
			}
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

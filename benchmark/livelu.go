package main

import (
	"fmt"
	"time"

	ndflow "github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/lu"
	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/matrix"
)

// live-lu's program: ND LU at n=512, base 32 — 1,440 strands and a
// 2 MiB matrix.
const (
	luN    = 512
	luBase = 32
)

// luInstance is live-lu's seeded input: the pristine matrix, the
// instance the program factors in place, and the serial reference.
type luInstance struct {
	pristine, zeroPiv *matrix.Matrix
	inst, ref         *lu.Instance
}

func newLUInstance(seed int64) (*luInstance, error) {
	r := newRand(seed)
	s := matrix.NewSpace()
	a := matrix.New(s, luN, luN)
	a.FillRandom(r)
	for i := 0; i < luN; i++ {
		a.Add(i, i, 4) // diagonally dominant enough to keep pivoting stable
	}
	in := &luInstance{pristine: a.Copy(nil), zeroPiv: matrix.New(s, 1, luN)}
	var err error
	if in.inst, err = lu.NewInstance(s, a, luBase); err != nil {
		return nil, err
	}
	if in.ref, err = lu.NewInstance(matrix.NewSpace(), a.Copy(nil), luBase); err != nil {
		return nil, err
	}
	if err := lu.Serial(in.ref); err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	return in, nil
}

func (in *luInstance) restore() {
	in.inst.A.CopyFrom(in.pristine)
	in.inst.Piv.CopyFrom(in.zeroPiv)
}

func setupLiveLU(cfg config) (*fixture, error) {
	in, err := newLUInstance(cfg.seed)
	if err != nil {
		return nil, err
	}
	var l *spanLog
	if cfg.trace {
		l = newSpanLog(time.Now(), -1)
	}
	p, g, err := buildProgram(l, func() (*core.Program, error) { return lu.New(algos.ND, in.inst) })
	if err != nil {
		return nil, err
	}
	e := ndflow.NewEngine(0)
	// The first, cold submission rewrites and caches the program; the
	// second runs warm. Both are checked.
	for i := 0; i < 2; i++ {
		in.restore()
		err := e.Run(p)
		if err == nil {
			err = checkLU(in.inst, in.ref, false)
		}
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
	}
	fx := &fixture{
		submitters: 1,
		engines:    []*ndflow.Engine{e},
		setupLog:   l,
		step: func(_ int, l *spanLog, plant bool) sample {
			in.restore()
			smp := timeOp(l, "exec.run", func() error { return e.Run(p) })
			if smp.err == nil {
				smp.err = checkLU(in.inst, in.ref, plant)
			}
			if smp.err == nil && l != nil {
				_, smp.err = timeElision(l, g, in.restore, func() error { return checkLU(in.inst, in.ref, false) })
			}
			return smp
		},
		close: e.Close,
	}
	if cfg.trace {
		fx.layers = func(rep *layerReport) { serialBound(rep, g, 2*luN*luN*luN/3, 0) }
	}
	return fx, nil
}

package main

import (
	"fmt"
	"math/rand"
	"time"

	ndflow "github.com/ndflow/ndflow"
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
)

// coldBase is the base-case size of every cold-mix builder.
const coldBase = 8

// coldVariants is how many seeded inputs set-up makes per builder; each
// op picks one, so set-up pays the serial references once.
const coldVariants = 2

// coldCase is one of the seven ND builders of experiments.Builders(), at
// the size cold-mix runs it. Each n puts the builder's cold solve within
// about 2× of FW-1D-256/8's on a 2-CPU x86 machine (MM-64 ≈ 14 ms,
// TRS-128 ≈ 58 ms, FW-1D-256 ≈ 24 ms).
type coldCase struct {
	name  string
	n     int
	flops float64 // floating-point operations of one solve; 0 for the DP recurrences
	input func(seed int64, n int) (*coldInput, error)
}

var coldCases = []coldCase{
	{"MM", 64, 2 * 64 * 64 * 64, mmInput},
	{"TRS", 128, 128 * 128 * 128, trsInput},
	{"Cholesky", 128, 128 * 128 * 128 / 3, choleskyInput},
	{"LU", 128, 2 * 128 * 128 * 128 / 3, luInput},
	{"FW-1D", 256, 0, fwInput},
	{"LCS", 256, 0, lcsInput},
	{"Stencil", 256, 0, stencilInput},
}

// coldInput is one seeded input set of a builder and its serial
// reference output. instance copies the inputs into fresh matrices in a
// fresh address space, ready for one op.
type coldInput struct {
	want     *matrix.Matrix
	instance func() *coldOp
}

// coldOp is one op's inputs. build is the op's program constructor (an
// internal/algos New, which calls core.NewProgram); restore puts the
// inputs back for the serial elision of a traced op; check compares the
// output with the serial reference using the tolerance of the
// algorithm's _test.go.
type coldOp struct {
	build   func() (*core.Program, error)
	restore func()
	check   func(plant bool) error
}

// coldPlan is cold-mix's op sequence: seeded permutations of the seven
// builders back to back, each op on a seeded choice of input variant.
type coldPlan struct {
	rng  *rand.Rand
	perm []int
}

func newColdPlan(seed int64) *coldPlan { return &coldPlan{rng: newRand(seed)} }

func (p *coldPlan) next() (builder, variant int) {
	if len(p.perm) == 0 {
		p.perm = p.rng.Perm(len(coldCases))
	}
	builder, p.perm = p.perm[0], p.perm[1:]
	return builder, p.rng.Intn(coldVariants)
}

func setupColdMix(cfg config) (*fixture, error) {
	rng := newRand(cfg.seed)
	planSeed := rng.Int63()
	inputs := make([][]*coldInput, len(coldCases))
	for c, cc := range coldCases {
		for v := 0; v < coldVariants; v++ {
			in, err := cc.input(rng.Int63(), cc.n)
			if err != nil {
				return nil, fmt.Errorf("%s input: %w", cc.name, err)
			}
			inputs[c] = append(inputs[c], in)
		}
	}
	eng := ndflow.DefaultEngine()
	// Warm-up: one untimed op per builder, so code paths and the
	// collector's pacing have settled before the window.
	for c, cc := range coldCases {
		op := inputs[c][0].instance()
		if err := coldSolve(op); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", cc.name, err)
		}
		if err := op.check(false); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", cc.name, err)
		}
	}
	var setupLog *spanLog
	if cfg.trace {
		setupLog = newSpanLog(time.Now(), -1)
		for c, cc := range coldCases {
			if err := countAllocs(setupLog, inputs[c][0].instance().build); err != nil {
				return nil, fmt.Errorf("%s: %w", cc.name, err)
			}
		}
	}
	plan := newColdPlan(planSeed)
	return &fixture{
		submitters: 1,
		engines:    []*ndflow.Engine{eng},
		setupLog:   setupLog,
		step: func(_ int, l *spanLog, plant bool) sample {
			c, v := plan.next()
			op := inputs[c][v].instance()
			t0 := time.Now()
			if l == nil {
				err := coldSolve(op)
				lat := time.Since(t0)
				if err == nil {
					err = op.check(plant)
				}
				return sample{at: t0, lat: lat, class: c, err: wrapErr(coldCases[c].name, err)}
			}
			lat, err := coldTraced(l, coldCases[c], op, plant)
			return sample{at: t0, lat: lat, class: c, err: wrapErr(coldCases[c].name, err)}
		},
		close: func() {},
	}, nil
}

// coldSolve is an untraced op: build a fresh program, rewrite it, run it.
func coldSolve(op *coldOp) error {
	p, err := op.build()
	if err != nil {
		return err
	}
	g, err := ndflow.Rewrite(p)
	if err != nil {
		return err
	}
	return ndflow.Run(g, 0)
}

// coldTraced is a traced op. ndflow.Run(g, 0) is split into its public
// calls — wake collapse, instance, SubmitInstance and Wait on the
// default engine — so each layer gets a span. After the check, outside
// the op, it re-runs the CSR compile alone and times the serial elision
// on restored inputs (the op's work W).
func coldTraced(l *spanLog, cc coldCase, op *coldOp, plant bool) (time.Duration, error) {
	root := l.op("op")
	s := l.begin("build", root)
	p, err := op.build()
	l.end(s)
	var g *core.Graph
	if err == nil {
		s = l.begin("core.rewrite", root)
		g, err = ndflow.Rewrite(p)
		l.end(s)
	}
	var run int32
	if err == nil {
		s = l.begin("core.wake", root)
		eg := g.Exec()
		eg.Wake()
		l.end(s)
		s = l.begin("exec.instance", root)
		inst := exec.NewInstance(eg)
		l.end(s)
		run = l.begin("exec.run", root)
		var r *exec.Run
		if r, err = ndflow.DefaultEngine().SubmitInstance(inst); err == nil {
			err = r.Wait()
		}
		l.end(run)
	}
	lat := l.end(root)
	if err != nil {
		return lat, err
	}
	if err := op.check(plant); err != nil {
		return lat, err
	}
	if err := timeCompile(l, g); err != nil {
		return lat, err
	}
	w, err := timeElision(l, g, op.restore, func() error { return op.check(false) })
	if err != nil {
		return lat, err
	}
	noteGraph(l, g)
	l.bounds = append(l.bounds, boundOp{
		w: ms(w), cp: ms(w) * float64(g.Span()) / float64(p.Work()),
		strands: float64(len(p.Leaves)), flops: cc.flops,
		run: interval{l.spans[run].start, l.spans[run].end},
	})
	return lat, nil
}

// fresh copies src into a new matrix allocated in space s.
func fresh(s *matrix.Space, src *matrix.Matrix) *matrix.Matrix {
	m := matrix.New(s, src.Rows(), src.Cols())
	m.CopyFrom(src)
	return m
}

// compare checks got against want within tol (0: bit-exact). plant first
// puts a wrong value into one cell of got, which the check must catch.
func compare(what string, got, want *matrix.Matrix, tol float64, plant bool) error {
	if plant {
		got.Add(got.Rows()-1, got.Cols()-1, 1)
	}
	if d := matrix.MaxAbsDiff(got, want); d > tol || d != d {
		return fmt.Errorf("%s: %g off the serial reference (tolerance %g)", what, d, tol)
	}
	return nil
}

func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

func mmInput(seed int64, n int) (*coldInput, error) {
	r := newRand(seed)
	s := matrix.NewSpace()
	a, b, zero := matrix.New(s, n, n), matrix.New(s, n, n), matrix.New(s, n, n)
	a.FillRandom(r)
	b.FillRandom(r)
	want := matrix.New(s, n, n)
	matmul.Serial(want, a, b, 1)
	return &coldInput{want: want, instance: func() *coldOp {
		s := matrix.NewSpace()
		a, b, c := fresh(s, a), fresh(s, b), matrix.New(s, n, n)
		return &coldOp{
			build:   func() (*core.Program, error) { return matmul.New(algos.ND, c, a, b, 1, coldBase) },
			restore: func() { c.CopyFrom(zero) },
			check:   func(plant bool) error { return compare("C", c, want, 1e-9, plant) },
		}
	}}, nil
}

func trsInput(seed int64, n int) (*coldInput, error) {
	r := newRand(seed)
	s := matrix.NewSpace()
	t, b := matrix.New(s, n, n), matrix.New(s, n, n)
	t.FillLowerTriangular(r)
	b.FillRandom(r)
	want := fresh(s, b)
	trs.Serial(t, want)
	return &coldInput{want: want, instance: func() *coldOp {
		s := matrix.NewSpace()
		t, x := fresh(s, t), fresh(s, b)
		return &coldOp{
			build:   func() (*core.Program, error) { return trs.New(algos.ND, t, x, coldBase) },
			restore: func() { x.CopyFrom(b) },
			check:   func(plant bool) error { return compare("X", x, want, 1e-8, plant) },
		}
	}}, nil
}

func choleskyInput(seed int64, n int) (*coldInput, error) {
	r := newRand(seed)
	s := matrix.NewSpace()
	a := matrix.New(s, n, n)
	a.FillSPD(r)
	want := fresh(s, a)
	if err := cholesky.Serial(want, coldBase); err != nil {
		return nil, err
	}
	return &coldInput{want: want, instance: func() *coldOp {
		x := fresh(matrix.NewSpace(), a)
		var errSlot *error
		return &coldOp{
			build: func() (*core.Program, error) {
				p, slot, err := cholesky.New(algos.ND, x, coldBase)
				errSlot = slot
				return p, err
			},
			restore: func() { x.CopyFrom(a) },
			check: func(plant bool) error {
				if errSlot != nil && *errSlot != nil {
					return fmt.Errorf("factorization failed: %w", *errSlot)
				}
				return compare("L", x, want, 1e-6, plant)
			},
		}
	}}, nil
}

func luInput(seed int64, n int) (*coldInput, error) {
	r := newRand(seed)
	s := matrix.NewSpace()
	a := matrix.New(s, n, n)
	a.FillRandom(r)
	for i := 0; i < n; i++ {
		a.Add(i, i, 2) // keep panels comfortably nonsingular, as lu_test.go does
	}
	ref, err := lu.NewInstance(matrix.NewSpace(), fresh(s, a), coldBase)
	if err != nil {
		return nil, err
	}
	if err := lu.Serial(ref); err != nil {
		return nil, err
	}
	return &coldInput{want: ref.A, instance: func() *coldOp {
		s := matrix.NewSpace()
		inst, err := lu.NewInstance(s, fresh(s, a), coldBase)
		pivots := matrix.New(s, 1, n)
		return &coldOp{
			build: func() (*core.Program, error) {
				if err != nil {
					return nil, err
				}
				return lu.New(algos.ND, inst)
			},
			restore: func() {
				inst.A.CopyFrom(a)
				inst.Piv.CopyFrom(pivots)
			},
			check: func(plant bool) error { return checkLU(inst, ref, plant) },
		}
	}}, nil
}

// checkLU is lu_test.go's rule: factors within 1e-10 of the serial
// recursion's, pivots exactly equal.
func checkLU(inst, ref *lu.Instance, plant bool) error {
	if err := inst.Err(); err != nil {
		return fmt.Errorf("factorization failed: %w", err)
	}
	if err := compare("LU factors", inst.A, ref.A, 1e-10, plant); err != nil {
		return err
	}
	return compare("pivots", inst.Piv, ref.Piv, 0, false)
}

func fwInput(seed int64, n int) (*coldInput, error) {
	ref := fw.NewInstance(matrix.NewSpace(), n, seed)
	pristine := ref.Table.Copy(nil)
	ref.Serial()
	want := ref.Table
	return &coldInput{want: want, instance: func() *coldOp {
		inst := fw.NewInstance(matrix.NewSpace(), n, seed)
		return &coldOp{
			build:   func() (*core.Program, error) { return fw.New(algos.ND, inst, coldBase) },
			restore: func() { inst.Table.CopyFrom(pristine) },
			check:   func(plant bool) error { return compare("table", inst.Table, want, 0, plant) },
		}
	}}, nil
}

func lcsInput(seed int64, n int) (*coldInput, error) {
	ref := lcs.NewInstance(matrix.NewSpace(), n, 3, seed)
	pristine := ref.Table.Copy(nil)
	ref.Serial()
	want := ref.Table
	return &coldInput{want: want, instance: func() *coldOp {
		inst := lcs.NewInstance(matrix.NewSpace(), n, 3, seed)
		return &coldOp{
			build:   func() (*core.Program, error) { return lcs.New(algos.ND, inst, coldBase) },
			restore: func() { inst.Table.CopyFrom(pristine) },
			check:   func(plant bool) error { return compare("table", inst.Table, want, 0, plant) },
		}
	}}, nil
}

func stencilInput(seed int64, n int) (*coldInput, error) {
	ref := stencil.NewInstance(matrix.NewSpace(), n, seed)
	pristine := ref.Table.Copy(nil)
	ref.Serial()
	want := ref.Table
	return &coldInput{want: want, instance: func() *coldOp {
		inst := stencil.NewInstance(matrix.NewSpace(), n, seed)
		return &coldOp{
			build:   func() (*core.Program, error) { return stencil.New(algos.ND, inst, coldBase) },
			restore: func() { inst.Table.CopyFrom(pristine) },
			check:   func(plant bool) error { return compare("table", inst.Table, want, 0, plant) },
		}
	}}, nil
}

// The linsolve example runs a dense symmetric positive-definite solve
// pipeline in the ND model: Cholesky-factor A = L·Lᵀ (Eq. 11 of the
// paper), forward-solve L·Y = B with the ND triangular solver (Eq. 4),
// and verify the factor and solve with ND matrix multiplies — all on the
// real goroutine runtime.
//
// Run with: go run ./examples/linsolve [-n 128]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/cholesky"
	"github.com/ndflow/ndflow/internal/algos/trs"
	"github.com/ndflow/ndflow/internal/matrix"
)

func main() {
	var (
		n    = flag.Int("n", 128, "system size (power of two)")
		base = flag.Int("base", 16, "base-case block size")
	)
	flag.Parse()

	r := rand.New(rand.NewSource(7))
	space := matrix.NewSpace()
	a := matrix.New(space, *n, *n)
	a.FillSPD(r)
	bmat := matrix.New(space, *n, *n)
	bmat.FillRandom(r)
	aOrig := a.Copy(nil)
	bOrig := bmat.Copy(nil)

	// Stage 1: factor A in place (lower triangle becomes L).
	factorProg, errSlot, err := cholesky.New(algos.ND, a, *base)
	if err != nil {
		log.Fatal(err)
	}
	gFactor, err := ndflow.Rewrite(factorProg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	if err := ndflow.Run(gFactor, runtime.NumCPU()); err != nil {
		log.Fatal(err)
	}
	if *errSlot != nil {
		log.Fatal(*errSlot)
	}
	factorTime := time.Since(start)

	// Extract L (the in-place result keeps stale data above off-diagonal
	// blocks).
	l := matrix.New(matrix.NewSpace(), *n, *n)
	for i := 0; i < *n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, a.At(i, j))
		}
	}

	// Stage 2: forward solve L·Y = B in place on B.
	solveSpace := matrix.NewSpace()
	lSolve := matrix.New(solveSpace, *n, *n)
	lSolve.CopyFrom(l)
	y := matrix.New(solveSpace, *n, *n)
	y.CopyFrom(bOrig)
	solveProg, err := trs.New(algos.ND, lSolve, y, *base)
	if err != nil {
		log.Fatal(err)
	}
	gSolve, err := ndflow.Rewrite(solveProg)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	if err := ndflow.Run(gSolve, runtime.NumCPU()); err != nil {
		log.Fatal(err)
	}
	solveTime := time.Since(start)

	// Verification: ‖L·Lᵀ − A‖ and ‖L·Y − B‖ via plain kernels.
	rec := matrix.New(matrix.NewSpace(), *n, *n)
	matrix.MulAdd(rec, l, l.T(), 1)
	var factorResid float64
	for i := 0; i < *n; i++ {
		for j := 0; j <= i; j++ {
			if d := rec.At(i, j) - aOrig.At(i, j); d > factorResid || -d > factorResid {
				if d < 0 {
					d = -d
				}
				factorResid = d
			}
		}
	}
	ly := matrix.New(matrix.NewSpace(), *n, *n)
	matrix.MulAdd(ly, l, y, 1)
	solveResid := matrix.MaxAbsDiff(ly, bOrig)

	fmt.Printf("system: %d×%d SPD, %d right-hand sides, base %d\n", *n, *n, *n, *base)
	fmt.Printf("factor: %6d strands, span %8d, parallelism %6.1f, %v\n",
		len(factorProg.Leaves), gFactor.Span(), gFactor.Parallelism(), factorTime.Round(time.Microsecond))
	fmt.Printf("solve:  %6d strands, span %8d, parallelism %6.1f, %v\n",
		len(solveProg.Leaves), gSolve.Span(), gSolve.Parallelism(), solveTime.Round(time.Microsecond))
	fmt.Printf("residuals: ‖L·Lᵀ−A‖∞ = %.3g   ‖L·Y−B‖∞ = %.3g\n", factorResid, solveResid)
}

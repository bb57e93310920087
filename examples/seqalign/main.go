// The seqalign example computes the longest common subsequence of two
// random DNA-alphabet sequences with the ND-model dynamic program of the
// paper's §3 (Figures 1 and 11), executing the wavefront on the real
// goroutine runtime and comparing against the serial dynamic program.
//
// Run with: go run ./examples/seqalign [-n 512] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"github.com/ndflow/ndflow"
	"github.com/ndflow/ndflow/internal/algos"
	"github.com/ndflow/ndflow/internal/algos/lcs"
	"github.com/ndflow/ndflow/internal/matrix"
)

func main() {
	var (
		n       = flag.Int("n", 512, "sequence length (power of two)")
		base    = flag.Int("base", 32, "base-case block size")
		workers = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	)
	flag.Parse()

	// Serial reference.
	serial := lcs.NewInstance(matrix.NewSpace(), *n, 4, 2026)
	start := time.Now()
	serial.Serial()
	serialTime := time.Since(start)

	// ND-model parallel run.
	inst := lcs.NewInstance(matrix.NewSpace(), *n, 4, 2026)
	prog, err := lcs.New(algos.ND, inst, *base)
	if err != nil {
		log.Fatal(err)
	}
	g, err := ndflow.Rewrite(prog)
	if err != nil {
		log.Fatal(err)
	}
	w := *workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	start = time.Now()
	if err := ndflow.Run(g, w); err != nil {
		log.Fatal(err)
	}
	parTime := time.Since(start)

	if inst.Length() != serial.Length() {
		log.Fatalf("parallel LCS length %d != serial %d", inst.Length(), serial.Length())
	}
	fmt.Printf("sequences: length %d over alphabet {A,C,G,T}\n", *n)
	fmt.Printf("LCS length: %d\n", inst.Length())
	fmt.Printf("strands: %d  span (work units): %d  parallelism T1/T∞: %.1f\n",
		len(prog.Leaves), g.Span(), g.Parallelism())
	fmt.Printf("serial DP: %v   ND runtime ×%d workers: %v  (speedup %.2f)\n",
		serialTime.Round(time.Microsecond), w, parTime.Round(time.Microsecond),
		float64(serialTime)/float64(parTime))
}

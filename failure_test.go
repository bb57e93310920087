package ndflow_test

import (
	"context"
	"errors"
	"os"
	osexec "os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	ndflow "github.com/ndflow/ndflow"
)

func panickyGraph(t *testing.T) *ndflow.Graph {
	t.Helper()
	root := ndflow.Seq(
		ndflow.Strand("ok", 1, nil, nil, func() {}),
		ndflow.Strand("bad", 1, nil, nil, func() { panic("public boom") }),
		ndflow.Strand("tail", 1, nil, nil, func() {}),
	)
	p, err := ndflow.NewProgram(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := ndflow.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRunPanicTypedAllWorkerCounts is the regression test for the
// workers knob: every path through ndflow.Run — the 1-worker
// serial-replay fast path, dedicated pools, and the shared default
// engine (workers <= 0) — must surface a body panic as the same typed
// *StrandPanicError.
func TestRunPanicTypedAllWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		err := ndflow.Run(panickyGraph(t), workers)
		var pe *ndflow.StrandPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Run(workers=%d) = %v, want *StrandPanicError", workers, err)
		}
		if pe.Value != "public boom" || pe.Label != "bad" {
			t.Fatalf("Run(workers=%d) captured strand %q value %v", workers, pe.Label, pe.Value)
		}
	}
}

// runLeakChildEnv marks the fresh process TestRunDoesNotLeakGoroutines
// re-executes itself in.
const runLeakChildEnv = "NDFLOW_RUN_LEAK_CHILD"

// TestRunDoesNotLeakGoroutines: an explicit worker count above one runs
// a throwaway engine, and Run must close it on both the clean and the
// failing path, so the goroutine count returns to its baseline. Nor may
// an explicit count start the process-lifetime default engine. Whether
// an earlier test already started that engine depends on test order, so
// the check runs in a fresh copy of the test binary where it is known
// not to be running.
func TestRunDoesNotLeakGoroutines(t *testing.T) {
	if os.Getenv(runLeakChildEnv) == "" {
		cmd := osexec.Command(os.Args[0], "-test.run=^TestRunDoesNotLeakGoroutines$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), runLeakChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS: TestRunDoesNotLeakGoroutines") {
			t.Fatalf("fresh-process run failed (%v):\n%s", err, out)
		}
		return
	}
	wide := func() *ndflow.Graph {
		leaves := make([]*ndflow.Node, 64)
		for i := range leaves {
			leaves[i] = ndflow.Strand("s", 1, nil, nil, func() {})
		}
		p, err := ndflow.NewProgram(ndflow.Par(leaves...), nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ndflow.Rewrite(p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4, 16} {
		if err := ndflow.Run(wide(), workers); err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if err := ndflow.Run(panickyGraph(t), workers); err == nil {
			t.Fatalf("Run(workers=%d) of a panicking graph returned nil", workers)
		}
		// A worker that has signalled Close may not have returned yet;
		// give the scheduler a moment before calling it a leak.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("Run(workers=%d) leaked goroutines: %d > baseline %d", workers, got, base)
		}
	}
}

// TestPublicFailureSurface exercises the exported failure aliases:
// cancellation and context deadlines through the public Engine type.
func TestPublicFailureSurface(t *testing.T) {
	eng := ndflow.NewEngine(2)
	defer eng.Close()

	g := panickyGraph(t)
	r, err := eng.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	var pe *ndflow.StrandPanicError
	if err := r.Wait(); !errors.As(err, &pe) {
		t.Fatalf("engine Wait = %v, want *StrandPanicError", err)
	}

	slow := func() *ndflow.Graph {
		root := ndflow.Seq(
			ndflow.Strand("s0", 1, nil, nil, func() { time.Sleep(30 * time.Millisecond) }),
			ndflow.Strand("s1", 1, nil, nil, func() { time.Sleep(30 * time.Millisecond) }),
		)
		p, err := ndflow.NewProgram(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		gg, err := ndflow.Rewrite(p)
		if err != nil {
			t.Fatal(err)
		}
		return gg
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	cr, err := eng.SubmitCtx(ctx, slow())
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitCtx Wait = %v, want DeadlineExceeded", err)
	}

	xr, err := eng.Submit(slow())
	if err != nil {
		t.Fatal(err)
	}
	xr.Cancel()
	if err := xr.Wait(); err != nil && !errors.Is(err, ndflow.ErrRunCanceled) {
		t.Fatalf("Cancel Wait = %v, want nil or ErrRunCanceled", err)
	}
}

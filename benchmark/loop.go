package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ndflow/ndflow/internal/exec"
	"github.com/ndflow/ndflow/internal/telemetry"
)

// sample is one op as the closed loop saw it.
type sample struct {
	at     time.Time     // when the op's clock started
	lat    time.Duration // submitter's call to result back; input and check excluded
	class  int           // kind of op: cold-mix's builder, dyn-mix's jit or live
	traced bool
	err    error // the op returned an error or failed its output check
}

// fixture is a workload after set-up: the state its ops run against.
type fixture struct {
	submitters int
	// engines are the engines the ops run on; the window sums their
	// counters. All have the same worker count.
	engines []*exec.Engine
	// step runs submitter sub's next op. It prepares the op's input off
	// the clock, times the op, and checks the output off the clock. A
	// non-nil log makes the op traced. plant puts a wrong cell into the
	// output before the check.
	step func(sub int, log *spanLog, plant bool) sample
	// verify checks the window as a whole from the engine's counter
	// deltas and returns how many ops it finds failed (nil: nothing to
	// check beyond each op).
	verify func(d telemetry.Snapshot, ops int) int
	// setupLog holds the traced set-up's spans: the front end a warm
	// workload pays once, before its window.
	setupLog *spanLog
	// tail runs after a traced window, for measurements that must not
	// share the CPUs with in-flight ops; it gets tailShare of the run's
	// seconds.
	tail      func(budget time.Duration, rep *layerReport) error
	tailShare float64
	// layers adds the workload's own per-layer metrics to a traced run.
	layers func(rep *layerReport)
	close  func()
}

// hangLimit is how long one op may run before the window gives up on
// it. A hung op counts as failed and ends the run; its engine is
// abandoned, since nothing can close an engine with a run stuck in it.
const hangLimit = 10 * time.Second

// window is one measured run of a fixture's ops.
type window struct {
	epoch   time.Time
	wall    time.Duration
	samples []sample
	logs    []*spanLog
	mallocs uint64
	delta   telemetry.Snapshot
	hung    int   // ops still running after hangLimit
	failed  int64 // ops failed: errors, failed checks, verify's findings, hangs
}

func run(cfg config, w io.Writer) (*result, error) {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	reps := max(cfg.setupReps, 1)
	if cfg.trace {
		reps = 1
	}
	var setups []float64
	var fx *fixture
	for r := 0; r < reps; r++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		f, err := wl.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fx = f
	}

	measured := cfg.seconds
	if cfg.trace {
		measured *= 1 - fx.tailShare
	}
	win := measure(fx, cfg, time.Duration(measured*float64(time.Second)))
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  submitters %d  workers %d  GOMAXPROCS %d\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, fx.submitters, fx.engines[0].Workers(), runtime.GOMAXPROCS(0))
	shown := 0
	for _, s := range win.samples {
		if s.err != nil && shown < 5 {
			fmt.Fprintf(os.Stderr, "benchmark: %s op failed: %v\n", wl.name, s.err)
			shown++
		}
	}
	if win.hung > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d op(s) still running after %v; run ended early\n", wl.name, win.hung, hangLimit)
	}

	res := &result{Attempted: int64(len(win.samples) + win.hung), Failed: win.failed, Metrics: map[string]metric{}}
	if !cfg.trace {
		endToEnd(res, setups, win)
	} else if win.hung == 0 {
		rep := newLayerReport(fx, win)
		if fx.tail != nil {
			budget := time.Duration(cfg.seconds * fx.tailShare * float64(time.Second))
			if err := fx.tail(budget, rep); err != nil {
				return nil, fmt.Errorf("%s traced tail: %w", wl.name, err)
			}
		}
		rep.fill()
		if fx.layers != nil {
			fx.layers(rep)
		}
		res.Metrics = rep.metrics
		if cfg.spansOut != "" {
			if err := writeSpans(cfg.spansOut, rep.logs()); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "spans written to %s\n", cfg.spansOut)
		}
	}
	res.Correct = res.Failed == 0
	printMetrics(w, res, cfg.trace)
	if win.hung == 0 {
		fx.close()
	}
	return res, nil
}

// lane is one submitter's share of a window.
type lane struct {
	mu      sync.Mutex
	samples []sample
	busy    atomic.Int64 // unix ns at which the running op began; 0 between ops
}

// measure runs the fixture's submitters closed-loop for d (and on until
// minOps ops have run) and collects every sample. It stops early when an
// op hangs past hangLimit.
func measure(fx *fixture, cfg config, d time.Duration) *window {
	win := &window{logs: make([]*spanLog, fx.submitters)}
	lanes := make([]lane, fx.submitters)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	snap0 := counters(fx.engines)
	win.epoch = time.Now()
	deadline := win.epoch.Add(d)
	for s := range win.logs {
		win.logs[s] = newSpanLog(win.epoch, s)
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	for s := range lanes {
		wg.Add(1)
		go func(sub int) {
			defer wg.Done()
			ln := &lanes[sub]
			for i := 0; ; i++ {
				if time.Now().After(deadline) && done.Load() >= int64(cfg.minOps) {
					return
				}
				var log *spanLog
				if cfg.trace && i%2 == 1 {
					log = win.logs[sub]
				}
				plant := cfg.plantEvery > 0 && i%cfg.plantEvery == cfg.plantEvery-1
				ln.busy.Store(time.Now().UnixNano())
				smp := fx.step(sub, log, plant)
				ln.busy.Store(0)
				smp.traced = log != nil
				ln.mu.Lock()
				ln.samples = append(ln.samples, smp)
				ln.mu.Unlock()
				done.Add(1)
			}
		}(s)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		select {
		case <-finished:
			break wait
		case now := <-tick.C:
			for i := range lanes {
				if t := lanes[i].busy.Load(); t != 0 && now.Sub(time.Unix(0, t)) > hangLimit {
					win.hung++
				}
			}
			if win.hung > 0 {
				break wait
			}
		}
	}
	win.wall = time.Since(win.epoch)
	win.delta = counters(fx.engines).Delta(snap0)
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	for i := range lanes {
		lanes[i].mu.Lock()
		win.samples = append(win.samples, lanes[i].samples...)
		lanes[i].mu.Unlock()
	}
	for _, s := range win.samples {
		if s.err != nil {
			win.failed++
		}
	}
	win.failed += int64(win.hung)
	if fx.verify != nil && win.hung == 0 {
		win.failed += int64(fx.verify(win.delta, len(win.samples)))
	}
	return win
}

// counters sums the engines' counter snapshots.
func counters(engines []*exec.Engine) telemetry.Snapshot {
	sum := telemetry.Snapshot{Values: map[string]uint64{}}
	for _, e := range engines {
		for name, v := range e.Metrics().Snapshot().Values {
			sum.Values[name] += v
		}
	}
	return sum
}

// endToEnd fills the end-to-end metrics of an untraced run. It drops the
// window's samples before it measures the live heap, so heap_mb is the
// memory the workload's state and the library retain, not the
// benchmark's own bookkeeping.
func endToEnd(res *result, setups []float64, win *window) {
	lat := make([]float64, len(win.samples))
	for i, s := range win.samples {
		lat[i] = ms(s.lat)
	}
	win.samples = nil
	slices.Sort(lat)
	put := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnit(name)} }
	put("setup_s", median(setups))
	put("op_ms_p50", quantile(lat, 0.5))
	if p90 := quantile(lat, 0.9); beyond(lat, p90) >= 10 {
		put("op_ms_p90", p90)
	}
	put("ops_per_s", float64(len(lat))/win.wall.Seconds())
	// fail_frac and allocs_per_op are printed, not put in the JSON: both
	// read 0 on a healthy warm engine, and a gated metric must never be 0.
	res.failFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.allocsPerOp = float64(win.mallocs) / float64(max(len(lat), 1))
	res.samples = len(lat)
	res.setups = len(setups)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	put("heap_mb", float64(m.HeapAlloc)/(1<<20))
}

// beyond counts the sorted samples strictly above v.
func beyond(sorted []float64, v float64) int {
	i, _ := slices.BinarySearch(sorted, math.Nextafter(v, math.Inf(1)))
	return len(sorted) - i
}

func printMetrics(w io.Writer, res *result, traced bool) {
	if !traced {
		for _, m := range endToEndMetrics {
			v, ok := res.Metrics[m.name]
			note := ""
			switch m.name {
			case "setup_s":
				note = fmt.Sprintf("median of %d set-ups", res.setups)
			case "op_ms_p50", "op_ms_p90":
				note = fmt.Sprintf("n=%d", res.samples)
				if !ok {
					note += ", fewer than 10 samples beyond p90: not reported"
				}
			case "fail_frac":
				v, ok = metric{res.failFrac, m.unit}, true
				note = fmt.Sprintf("%d of %d ops failed", res.Failed, res.Attempted)
			case "allocs_per_op":
				v, ok = metric{res.allocsPerOp, m.unit}, true
				note = "heap objects over the window / ops"
			}
			printLine(w, m.name, v, ok, note)
		}
		return
	}
	for _, m := range perLayerMetrics {
		v, ok := res.Metrics[m.name]
		printLine(w, m.name, v, ok, "")
	}
	if len(res.Metrics) > 0 {
		v := func(name string) float64 { return res.Metrics[name].Value }
		fmt.Fprintf(w, "bound report: W %.4g ms  P %g  T_P %.4g ms  Work/Span %.4g  efficiency W/(P·T_P) %.3g  T_P/(W/P + W·Span/Work) %.3g\n",
			v("matrix.kernel_ms"), v("exec.workers"), v("exec.tp_ms"), v("core.parallelism"), v("exec.efficiency"), v("exec.bound_ratio"))
	}
}

func printLine(w io.Writer, name string, v metric, ok bool, note string) {
	if !ok {
		fmt.Fprintf(w, "  %-28s %14s %-10s %s\n", name, "-", "", note)
		return
	}
	fmt.Fprintf(w, "  %-28s %14.6g %-10s %s\n", name, v.Value, v.Unit, note)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of sorted values, interpolating
// linearly between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// median returns the median of vs without reordering them.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

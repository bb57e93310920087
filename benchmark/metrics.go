package main

import (
	"math"
	"slices"

	"github.com/ndflow/ndflow/internal/telemetry"
)

type metricDef struct {
	name, unit string
	gated      bool // end-to-end: part of the JSON result that regressions are judged on
}

// endToEndMetrics are what a user of the library sees, in print order.
// fail_frac and allocs_per_op are printed but not gated: fail_frac is 0
// on a correct program, and allocs_per_op is 0 on a warm engine rerun,
// so neither has a spread a regression bound could be a share of. The
// failed and attempted counts of the JSON carry fail_frac.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", true},
	{"op_ms_p50", "ms", true},
	{"op_ms_p90", "ms", true},
	{"ops_per_s", "1/s", true},
	{"fail_frac", "ratio", false},
	{"allocs_per_op", "count", false},
	{"heap_mb", "MiB", true},
}

// perLayerMetrics are the traced run's metrics, named <layer>.<metric>
// after the repository's modules. README.md says which end-to-end metric
// each should move, and on which workload.
var perLayerMetrics = []metricDef{
	{name: "build.ms", unit: "ms"},
	{name: "build.allocs", unit: "count"},
	{name: "core.rewrite_ms", unit: "ms"},
	{name: "core.rewrite_allocs", unit: "count"},
	{name: "core.compile_ms", unit: "ms"},
	{name: "core.wake_ms", unit: "ms"},
	{name: "core.strands", unit: "count"},
	{name: "core.arrows", unit: "count"},
	{name: "core.arrows_per_strand", unit: "ratio"},
	{name: "core.parallelism", unit: "ratio"},
	{name: "exec.instance_us", unit: "us"},
	{name: "exec.run_ms", unit: "ms"},
	{name: "exec.workers", unit: "count"},
	{name: "exec.tp_ms", unit: "ms"},
	{name: "exec.steals_per_op", unit: "count/op"},
	{name: "exec.parks_per_op", unit: "count/op"},
	{name: "exec.injects_per_op", unit: "count/op"},
	{name: "exec.xpops_per_op", unit: "count/op"},
	{name: "exec.prog_hit_ratio", unit: "ratio"},
	{name: "exec.inst_hit_ratio", unit: "ratio"},
	{name: "exec.overhead_us_per_strand", unit: "us/strand"},
	{name: "exec.efficiency", unit: "ratio"},
	{name: "exec.bound_ratio", unit: "ratio"},
	{name: "matrix.kernel_ms", unit: "ms"},
	{name: "matrix.gflops", unit: "GFLOP/s"},
	{name: "dyn.jit_ms_p50", unit: "ms"},
	{name: "dyn.live_ms_p50", unit: "ms"},
	{name: "dyn.jit_hit_ratio", unit: "ratio"},
	{name: "dyn.capacity_misses", unit: "count"},
	{name: "dyn.divergences", unit: "count"},
	{name: "dyn.parks_per_op", unit: "count/op"},
	{name: "dyn.donations_per_op", unit: "count/op"},
	{name: "telemetry.armed_ratio", unit: "ratio"},
	{name: "telemetry.events_per_op", unit: "count/op"},
	{name: "bench.trace_overhead", unit: "ratio"},
	{name: "bench.span_coverage", unit: "ratio"},
}

func endToEndUnit(name string) string { return unitOf(endToEndMetrics, name) }

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// boundOp is one op's contribution to the bound report: its measured
// work W (the serial elision's time), W·Span/Work (the work-weighted
// span) and the interval the engine spent running it.
type boundOp struct {
	w, cp, strands, flops float64 // w and cp in ms
	run                   interval
}

// layerReport gathers a traced run's spans and counts into the
// per-layer metrics.
type layerReport struct {
	fx      *fixture
	win     *window
	tailLog *spanLog
	metrics map[string]metric
}

func newLayerReport(fx *fixture, win *window) *layerReport {
	rep := &layerReport{fx: fx, win: win, metrics: map[string]metric{}}
	rep.tailLog = newSpanLog(win.epoch, fx.submitters)
	for _, d := range perLayerMetrics {
		rep.set(d.name, 0)
	}
	return rep
}

func (r *layerReport) set(name string, v float64) {
	r.metrics[name] = metric{v, unitOf(perLayerMetrics, name)}
}

func (r *layerReport) logs() []*spanLog {
	logs := append([]*spanLog{r.tailLog}, r.win.logs...)
	if r.fx.setupLog != nil {
		logs = append(logs, r.fx.setupLog)
	}
	return logs
}

// spanStats returns, per span name, the self times and durations in ms
// of every recorded span.
func (r *layerReport) spanStats() (self, dur map[string][]float64) {
	self, dur = map[string][]float64{}, map[string][]float64{}
	for _, l := range r.logs() {
		st := l.selfTimes()
		for i, s := range l.spans {
			self[s.name] = append(self[s.name], ms(st[i]))
			dur[s.name] = append(dur[s.name], ms(s.dur()))
		}
	}
	return self, dur
}

func (r *layerReport) notes(name string) []float64 {
	var vs []float64
	for _, l := range r.logs() {
		vs = append(vs, l.notes[name]...)
	}
	return vs
}

// fill sets every per-layer metric that spans and engine counters give
// the same way on every workload. A metric a workload has no data for
// stays 0 (README.md lists which).
func (r *layerReport) fill() {
	self, dur := r.spanStats()
	med := func(vs []float64) float64 {
		if len(vs) == 0 {
			return 0
		}
		return median(vs)
	}
	r.set("build.ms", med(self["build"]))
	r.set("build.allocs", med(r.notes("build.allocs")))
	r.set("core.rewrite_ms", med(self["core.rewrite"]))
	r.set("core.rewrite_allocs", med(r.notes("core.rewrite_allocs")))
	r.set("core.compile_ms", med(self["core.compile"]))
	r.set("core.wake_ms", med(self["core.wake"]))
	r.set("exec.instance_us", 1e3*med(self["exec.instance"]))
	r.set("matrix.kernel_ms", med(self["matrix.kernel"]))
	r.set("dyn.jit_ms_p50", med(dur["dyn.jit"]))
	r.set("dyn.live_ms_p50", med(dur["dyn.live"]))
	runs := append(append(slices.Clone(dur["exec.run"]), dur["dyn.jit"]...), dur["dyn.live"]...)
	r.set("exec.run_ms", med(runs))

	strands, arrows := r.notes("strands"), r.notes("arrows")
	r.set("core.strands", mean(strands))
	r.set("core.arrows", mean(arrows))
	if s := sum(strands); s > 0 {
		r.set("core.arrows_per_strand", sum(arrows)/s)
	}
	r.set("core.parallelism", med(r.notes("parallelism")))

	r.set("exec.workers", float64(r.fx.engines[0].Workers()))
	d, ops := r.win.delta, float64(max(len(r.win.samples), 1))
	r.set("exec.steals_per_op", float64(d.Get(telemetry.MSteals))/ops)
	r.set("exec.parks_per_op", float64(d.Get(telemetry.MParks))/ops)
	r.set("exec.injects_per_op", float64(d.Get(telemetry.MInjects))/ops)
	r.set("exec.xpops_per_op", float64(d.Get(telemetry.MCrossPops))/ops)
	r.set("exec.prog_hit_ratio", ratio(d.Get(telemetry.MProgHits), d.Get(telemetry.MProgMisses)))
	r.set("exec.inst_hit_ratio", ratio(d.Get(telemetry.MInstHits), d.Get(telemetry.MInstMisses)))

	r.set("bench.trace_overhead", traceOverhead(r.win.samples))
	if total := sum(dur["op"]); total > 0 {
		r.set("bench.span_coverage", 1-sum(self["op"])/total)
	}
	var bounds []boundOp
	for _, l := range r.logs() {
		bounds = append(bounds, l.bounds...)
	}
	r.bound(bounds)
}

// traceOverhead compares traced ops with the untraced ops they alternate
// with in the same window: the geometric mean, over op classes, of the
// ratio of their median latencies. Comparing within a class keeps a
// mix of slow and fast builders from moving the median by itself.
func traceOverhead(samples []sample) float64 {
	type pair struct{ plain, traced []float64 }
	byClass := map[int]*pair{}
	for _, s := range samples {
		p := byClass[s.class]
		if p == nil {
			p = &pair{}
			byClass[s.class] = p
		}
		if s.traced {
			p.traced = append(p.traced, ms(s.lat))
		} else {
			p.plain = append(p.plain, ms(s.lat))
		}
	}
	logSum, n := 0.0, 0
	for _, p := range byClass {
		if len(p.plain) > 0 && len(p.traced) > 0 {
			logSum += math.Log(median(p.traced) / median(p.plain))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// bound sets the bound report in the paper's terms from the ops that
// measured it: W is the summed serial-elision time, T_P the time the
// engine was busy running those ops (the union of their run intervals,
// so concurrent submissions are not double-counted), P the engine's
// workers and Span/Work the DAG's.
func (r *layerReport) bound(ops []boundOp) {
	if len(ops) == 0 {
		return
	}
	p := float64(r.fx.engines[0].Workers())
	var w, cp, strands, flops, flopW float64
	iv := make([]interval, 0, len(ops))
	for _, o := range ops {
		w, cp, strands = w+o.w, cp+o.cp, strands+o.strands
		if o.flops > 0 {
			flops, flopW = flops+o.flops, flopW+o.w
		}
		iv = append(iv, o.run)
	}
	tp := ms(unionLen(iv))
	r.set("exec.tp_ms", tp/float64(len(ops)))
	if strands > 0 {
		r.set("exec.overhead_us_per_strand", 1e3*(p*tp-w)/strands)
	}
	if w > 0 && tp > 0 {
		r.set("exec.efficiency", w/(p*tp))
		r.set("exec.bound_ratio", tp/(w/p+cp))
	}
	if flopW > 0 {
		r.set("matrix.gflops", flops/flopW/1e6)
	}
}

// ratio is useful/(useful+wasted), 0 when nothing was attempted.
func ratio(useful, wasted uint64) float64 {
	if useful+wasted == 0 {
		return 0
	}
	return float64(useful) / float64(useful+wasted)
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sum(vs) / float64(len(vs))
}

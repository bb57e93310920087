package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded from outside the program
// by the benchmark's own code.
type span struct {
	op         int64 // id shared by every span of one op
	parent     int32 // index of the causing span in the same log, -1 for a root
	name       string
	start, end time.Duration // since the run's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog holds one goroutine's spans and per-op counts in memory until
// the run ends. A nil log records nothing; untraced ops pass nil.
type spanLog struct {
	epoch  time.Time
	sub    int
	ops    int64
	spans  []span
	notes  map[string][]float64
	bounds []boundOp // traced ops that measured their work W
}

func newSpanLog(epoch time.Time, sub int) *spanLog {
	return &spanLog{epoch: epoch, sub: sub, notes: make(map[string][]float64)}
}

// op opens the root span of a new op and returns its index. Window ops
// are named "op"; a traced set-up names its root "setup".
func (l *spanLog) op(name string) int32 {
	l.ops++
	return l.begin(name, -1)
}

// begin opens a span of the current op under parent (-1: a root of its
// own, for work timed outside the op) and returns its index.
func (l *spanLog) begin(name string, parent int32) int32 {
	id := int64(l.sub)<<40 | l.ops
	l.spans = append(l.spans, span{op: id, parent: parent, name: name, start: time.Since(l.epoch)})
	return int32(len(l.spans) - 1)
}

func (l *spanLog) end(i int32) time.Duration {
	l.spans[i].end = time.Since(l.epoch)
	return l.spans[i].dur()
}

// mallocs reads the cumulative count of heap objects allocated. It stops
// the world, which can take a millisecond under a busy collector, so no
// timed span contains a call.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// note records one per-op count (strands, arrows, flops, ...).
func (l *spanLog) note(name string, v float64) {
	l.notes[name] = append(l.notes[name], v)
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its child spans cover.
func (l *spanLog) selfTimes() []time.Duration {
	kids := make([][]int32, len(l.spans))
	for i, s := range l.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]time.Duration, len(l.spans))
	var iv []interval
	for i, s := range l.spans {
		iv = iv[:0]
		for _, k := range kids[i] {
			c := l.spans[k]
			iv = append(iv, interval{max(c.start, s.start), min(c.end, s.end)})
		}
		self[i] = s.dur() - unionLen(iv)
	}
	return self
}

type interval struct{ lo, hi time.Duration }

// unionLen returns the total length the intervals cover; it sorts iv.
func unionLen(iv []interval) time.Duration {
	slices.SortFunc(iv, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var total, lo, hi time.Duration
	open := false
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		if open && x.lo <= hi {
			hi = max(hi, x.hi)
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = x.lo, x.hi, true
	}
	if open {
		total += hi - lo
	}
	return total
}

// chromeEvent is one complete event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes every log's spans as a Chrome trace (load it in
// Perfetto or about:tracing). Each event carries its op id, its parent's
// index in the same thread, and its self time.
func writeSpans(path string, logs []*spanLog) error {
	var evs []chromeEvent
	for _, l := range logs {
		self := l.selfTimes()
		for i, s := range l.spans {
			evs = append(evs, chromeEvent{
				Name: s.name, Ph: "X", PID: 1, TID: l.sub,
				TS:  float64(s.start) / 1e3,
				Dur: float64(s.dur()) / 1e3,
				Args: map[string]any{
					"op": s.op, "index": i, "parent": s.parent,
					"self_us": float64(self[i]) / 1e3,
				},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

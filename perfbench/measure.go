package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q of the samples at or below it). xs is
// sorted in place; an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the quantile serve-open and fleet-churn report as tail_ms.
// A p90 leaves ten samples beyond it even in a serve-open window (about
// 300 samples), and on a host whose speed drifts it moves with the
// speed instead of amplifying it the way a queueing p99 does; the p99s
// are printed in the report.
const tailQ = 0.90

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memMark captures the allocation counter at the start of a timed phase.
type memMark struct{ totalAlloc uint64 }

func markMem() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{totalAlloc: m.TotalAlloc}
}

// allocMB is the number of megabytes allocated since the mark.
func (m memMark) allocMB() float64 {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return float64(s.TotalAlloc-m.totalAlloc) / 1e6
}

// liveHeapMB forces a collection and reports the heap still reachable:
// what the caches and the workload's retained state hold.
func liveHeapMB() float64 {
	runtime.GC()
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return float64(s.HeapAlloc) / 1e6
}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is 0 for a root span; Trace is the root span's ID,
// shared by every span of one request or one pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, the
// untraced run's, records nothing and costs one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(layer, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	trace := id
	if parent > 0 {
		trace = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := coveredNS(s, children[s.ID])
		self[s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// coveredNS is the length of the union of the children's intervals
// clipped to the parent's.
func coveredNS(parent span, kids []span) int64 {
	var iv [][2]int64
	for _, k := range kids {
		if k.End < 0 {
			continue
		}
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	n := len(t.spans)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", n, path)
	return nil
}

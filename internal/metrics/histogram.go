package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// Latency histogram for the serving layer: fixed log-spaced buckets,
// lock-free observation (one atomic add per sample), quantiles estimated
// from bucket boundaries. Precision follows the bucket growth factor —
// every quantile is exact to within one bucket (±15%), which is the right
// trade for p50/p95/p99 service dashboards where the alternative (exact
// percentiles over a sample reservoir) would put a mutex on the hot path.

// histBuckets is the bucket count; histMin is the first upper bound;
// histGrowth is the geometric growth factor between bounds. 10µs·1.3^63
// ≈ 150s, so the range covers everything from a cache hit to a stuck
// request.
const (
	histBuckets = 64
	histGrowth  = 1.3
)

var histMin = float64(10 * time.Microsecond)

// histBound returns the inclusive upper bound (in nanoseconds) of bucket
// i; the last bucket is unbounded.
func histBound(i int) float64 {
	return histMin * math.Pow(histGrowth, float64(i))
}

// Histogram is a fixed-bucket log-spaced latency histogram safe for any
// number of concurrent observers. The zero value is ready to use.
type Histogram struct {
	counts  [histBuckets]atomic.Uint64
	sumNano atomic.Uint64
	maxNano atomic.Uint64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	ns := float64(d)
	if ns <= histMin {
		return 0
	}
	i := int(math.Ceil(math.Log(ns/histMin) / math.Log(histGrowth)))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketFor(d)].Add(1)
	h.sumNano.Add(uint64(d))
	for {
		cur := h.maxNano.Load()
		if uint64(d) <= cur || h.maxNano.CompareAndSwap(cur, uint64(d)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time quantile summary, JSON-shaped for
// /v1/stats and the load-generator report. Latencies are milliseconds.
type HistogramSnapshot struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Snapshot summarizes the histogram. Concurrent observers may land
// between the counter reads; the snapshot is internally consistent to
// within those in-flight samples (fine for observability, and the tests
// only snapshot quiescent histograms).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return HistogramSnapshot{}
	}
	maxNs := float64(h.maxNano.Load())
	quantile := func(q float64) float64 {
		rank := uint64(math.Ceil(q * float64(total)))
		if rank < 1 {
			rank = 1
		}
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum >= rank {
				// The true value lies at or below the bucket's upper
				// bound; clamp to the observed max so the tail quantiles
				// of a sparse histogram never exceed reality.
				return math.Min(histBound(i), maxNs)
			}
		}
		return maxNs
	}
	const ms = float64(time.Millisecond)
	return HistogramSnapshot{
		Count:  total,
		MeanMs: float64(h.sumNano.Load()) / float64(total) / ms,
		P50Ms:  quantile(0.50) / ms,
		P95Ms:  quantile(0.95) / ms,
		P99Ms:  quantile(0.99) / ms,
		MaxMs:  maxNs / ms,
	}
}

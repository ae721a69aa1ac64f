package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50Ms != 0 || s.P99Ms != 0 || s.MaxMs != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestHistogramQuantileBrackets(t *testing.T) {
	// 100 samples: 90 at 1ms, 10 at 100ms. p50 must sit near 1ms, p95
	// and p99 near 100ms, each within one log bucket (±30%).
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	within := func(got, want float64) bool { return got >= want/histGrowth && got <= want*histGrowth }
	if !within(s.P50Ms, 1) {
		t.Errorf("p50 %.3fms, want ~1ms", s.P50Ms)
	}
	if !within(s.P95Ms, 100) {
		t.Errorf("p95 %.3fms, want ~100ms", s.P95Ms)
	}
	if !within(s.P99Ms, 100) {
		t.Errorf("p99 %.3fms, want ~100ms", s.P99Ms)
	}
	if s.MaxMs != 100 {
		t.Errorf("max %.3fms, want exactly 100ms", s.MaxMs)
	}
	if s.MeanMs < 1 || s.MeanMs > 100 {
		t.Errorf("mean %.3fms out of [1,100]", s.MeanMs)
	}
}

func TestHistogramQuantilesOrdered(t *testing.T) {
	var h Histogram
	for d := time.Microsecond; d < 10*time.Second; d = d * 3 / 2 {
		h.Observe(d)
	}
	s := h.Snapshot()
	if !(s.P50Ms <= s.P95Ms && s.P95Ms <= s.P99Ms && s.P99Ms <= s.MaxMs) {
		t.Fatalf("quantiles out of order: %+v", s)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamped to 0
	h.Observe(0)
	h.Observe(10 * time.Minute) // beyond the last bucket bound
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count %d", s.Count)
	}
	if s.MaxMs != float64(10*time.Minute)/float64(time.Millisecond) {
		t.Fatalf("max %.1fms", s.MaxMs)
	}
	// The tail quantile is clamped to the observed max, never beyond.
	if s.P99Ms > s.MaxMs {
		t.Fatalf("p99 %.1f exceeds max %.1f", s.P99Ms, s.MaxMs)
	}
}

// TestHistogramConcurrent is the -race arm: many observers, no lock.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w+1) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("lost samples: %d of %d", s.Count, workers*per)
	}
	if s.MaxMs < float64(workers)/histGrowth {
		t.Fatalf("max %.3fms, want ~%dms", s.MaxMs, workers)
	}
}

package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInOrder(t *testing.T) {
	eng := NewEngine()
	var got []float64
	for _, at := range []float64{3, 1, 2, 1.5} {
		at := at
		eng.At(at, func() { got = append(got, at) })
	}
	end := eng.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []float64{1, 1.5, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestEngineTieBreakBySequence(t *testing.T) {
	eng := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(5, func() { got = append(got, i) })
	}
	eng.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestEngineAfterChains(t *testing.T) {
	eng := NewEngine()
	var trace []float64
	var step func(depth int)
	step = func(depth int) {
		trace = append(trace, eng.Now())
		if depth < 5 {
			eng.After(1.5, func() { step(depth + 1) })
		}
	}
	eng.At(0, func() { step(0) })
	end := eng.Run()
	if end != 7.5 {
		t.Fatalf("end = %v, want 7.5", end)
	}
	if len(trace) != 6 {
		t.Fatalf("trace length = %d, want 6", len(trace))
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	ev := eng.At(1, func() { fired = true })
	ev.Cancel()
	eng.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if eng.Pending() != 0 {
		t.Fatalf("pending = %d after run", eng.Pending())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(5, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	eng.At(1, func() {})
}

func TestRunUntil(t *testing.T) {
	eng := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		eng.At(at, func() { fired = append(fired, at) })
	}
	eng.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1 and 2 only", fired)
	}
	if eng.Now() != 2.5 {
		t.Fatalf("now = %v, want 2.5", eng.Now())
	}
	eng.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after full run", fired)
	}
}

func TestEngineReset(t *testing.T) {
	eng := NewEngine()
	eng.At(1, func() {})
	eng.Run()
	eng.Reset()
	if eng.Now() != 0 || eng.Pending() != 0 || eng.Fired() != 0 {
		t.Fatal("reset did not clear engine state")
	}
	// Engine is reusable after Reset.
	ok := false
	eng.At(2, func() { ok = true })
	eng.Run()
	if !ok {
		t.Fatal("engine unusable after Reset")
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(times []float64) bool {
		eng := NewEngine()
		var fired []float64
		for _, raw := range times {
			at := raw
			if at < 0 {
				at = -at
			}
			if at != at { // NaN guard
				continue
			}
			eng.At(at, func() { fired = append(fired, at) })
		}
		eng.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: an engine fires exactly as many events as were scheduled and
// not cancelled.
func TestEventCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		eng := NewEngine()
		n := rng.Intn(200)
		cancelled := 0
		count := 0
		events := make([]*Event, 0, n)
		for i := 0; i < n; i++ {
			events = append(events, eng.At(rng.Float64()*100, func() { count++ }))
		}
		for _, ev := range events {
			if rng.Float64() < 0.3 {
				ev.Cancel()
				cancelled++
			}
		}
		eng.Run()
		if count != n-cancelled {
			t.Fatalf("trial %d: fired %d, want %d", trial, count, n-cancelled)
		}
	}
}

func TestWaitGroup(t *testing.T) {
	var wg WaitGroup
	fired := 0
	wg.Add(2)
	wg.OnZero(func() { fired++ })
	wg.Done()
	if fired != 0 {
		t.Fatal("fired before count reached zero")
	}
	wg.Done()
	if fired != 1 {
		t.Fatalf("fired=%d, want 1", fired)
	}
	// OnZero on an already-zero group runs immediately.
	wg.OnZero(func() { fired++ })
	if fired != 2 {
		t.Fatalf("fired=%d, want 2", fired)
	}
}

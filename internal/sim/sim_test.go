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

// refEvent is one pending event of the reference model.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refEngine is a sorted-slice reference model of Engine: pending stays
// sorted by (at, seq), so the next event is always pending[0].
type refEngine struct {
	pending []refEvent
	now     Time
	nextSeq uint64
	fired   uint64
	halted  bool
	onFire  func(id int)
}

func (m *refEngine) schedule(id int, t Time) {
	ev := refEvent{at: t, seq: m.nextSeq, id: id}
	m.nextSeq++
	i := sort.Search(len(m.pending), func(i int) bool {
		p := m.pending[i]
		return p.at > t || (p.at == t && p.seq > ev.seq)
	})
	m.pending = append(m.pending, refEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

func (m *refEngine) find(id int) int {
	for i, p := range m.pending {
		if p.id == id {
			return i
		}
	}
	return -1
}

func (m *refEngine) cancel(id int) {
	if i := m.find(id); i >= 0 {
		m.pending = append(m.pending[:i], m.pending[i+1:]...)
	}
}

func (m *refEngine) step() bool {
	if len(m.pending) == 0 {
		return false
	}
	ev := m.pending[0]
	m.pending = m.pending[1:]
	m.now = ev.at
	m.fired++
	m.onFire(ev.id)
	return true
}

func (m *refEngine) runUntil(deadline Time) {
	for !m.halted && len(m.pending) > 0 && m.pending[0].at <= deadline {
		m.step()
	}
	if !m.halted && m.now < deadline {
		m.now = deadline
	}
}

func (m *refEngine) reset() {
	m.pending = m.pending[:0]
	m.now, m.nextSeq, m.fired, m.halted = 0, 0, 0, false
}

// fireAction is what an event does when it fires, on whichever side
// (engine or model) fires it.
type fireAction struct {
	cancel int  // id of an event to cancel, or -1
	halt   bool // call Halt
}

// TestEngineMatchesReferenceModel drives the engine and a sorted-slice
// model through the same seeded mix of At/After, caller-owned Schedule,
// mid-heap Cancel, reschedule, Cancel from inside a callback, double
// Cancel, Cancel after fire and after Reset, Step, RunUntil and Halt, and
// checks after every operation that both fired the same ids in the same
// order and agree on Now, Fired, Pending and each handle's Pending.
func TestEngineMatchesReferenceModel(t *testing.T) {
	const owned = 8
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine()
		var gotEng, gotRef []int
		actions := map[int]fireAction{}
		handles := map[int]*Event{} // every id ever scheduled, fired or not
		ownedEvs := make([]Event, owned)
		ref := &refEngine{}
		ref.onFire = func(id int) {
			gotRef = append(gotRef, id)
			a := actions[id]
			if a.cancel >= 0 {
				ref.cancel(a.cancel)
			}
			if a.halt {
				ref.halted = true
			}
		}
		engFire := func(id int) {
			gotEng = append(gotEng, id)
			a := actions[id]
			if a.cancel >= 0 {
				handles[a.cancel].Cancel()
			}
			if a.halt {
				eng.Halt()
			}
		}
		for i := range ownedEvs {
			id := i
			ownedEvs[i].Fn = func() { engFire(id) }
			handles[id] = &ownedEvs[i]
		}
		nextID := owned
		// anyID picks an id ever handed out, pending or not.
		anyID := func() int { return rng.Intn(nextID) }
		newAction := func() fireAction {
			a := fireAction{cancel: -1}
			switch r := rng.Intn(20); {
			case r < 4:
				a.cancel = anyID()
			case r == 4:
				a.halt = true
			}
			return a
		}
		delay := func() float64 {
			// Small integer delays make same-instant ties common.
			if rng.Intn(4) == 0 {
				return rng.Float64() * 3
			}
			return float64(rng.Intn(4))
		}
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(100); {
			case r < 25: // engine-allocated event
				id := nextID
				nextID++
				actions[id] = newAction()
				d := delay()
				t := eng.Now() + d
				if rng.Intn(2) == 0 {
					handles[id] = eng.At(t, func() { engFire(id) })
				} else {
					handles[id] = eng.After(d, func() { engFire(id) })
				}
				ref.schedule(id, t)
			case r < 45: // caller-owned Schedule, or reschedule if pending
				id := rng.Intn(owned)
				ev := &ownedEvs[id]
				actions[id] = newAction()
				ev.Cancel()
				ref.cancel(id)
				t := eng.Now() + delay()
				eng.Schedule(ev, t)
				ref.schedule(id, t)
			case r < 60: // cancel anything: mid-heap, fired, double, stale
				id := anyID()
				handles[id].Cancel()
				ref.cancel(id)
				if rng.Intn(3) == 0 {
					handles[id].Cancel()
				}
			case r < 80:
				eng.Step()
				ref.step()
			case r < 97:
				d := eng.Now() + delay()
				eng.RunUntil(d)
				ref.runUntil(d)
			default:
				eng.Reset()
				ref.reset()
			}
			if !equalInts(gotEng, gotRef) {
				t.Fatalf("seed %d op %d: fired %v, model %v", seed, op, gotEng, gotRef)
			}
			if eng.Now() != ref.now || eng.Fired() != ref.fired || eng.Pending() != len(ref.pending) {
				t.Fatalf("seed %d op %d: now/fired/pending %v/%d/%d, model %v/%d/%d", seed, op,
					eng.Now(), eng.Fired(), eng.Pending(), ref.now, ref.fired, len(ref.pending))
			}
			for id, h := range handles {
				if h.Pending() != (ref.find(id) >= 0) {
					t.Fatalf("seed %d op %d: event %d Pending() = %v, model disagrees", seed, op, id, h.Pending())
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScheduleRejectsPendingEvent(t *testing.T) {
	eng := NewEngine()
	ev := &Event{Fn: func() {}}
	eng.Schedule(ev, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling a pending event did not panic")
		}
	}()
	eng.Schedule(ev, 2)
}

// Steady-state scheduling and firing of caller-owned events must not
// allocate: the hot simulators rely on it.
func TestScheduleStepAllocFree(t *testing.T) {
	eng := NewEngine()
	evs := make([]Event, 64)
	for i := range evs {
		evs[i].Fn = func() {}
	}
	round := func() {
		for i := range evs {
			eng.Schedule(&evs[i], eng.Now()+float64(i%7))
		}
		evs[3].Cancel()
		for eng.Step() {
		}
	}
	round() // grow the queue's backing array once
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("Schedule+Step allocated %v times per round, want 0", allocs)
	}
}

// BenchmarkEngine fires b.N events from a queue of about 300 caller-owned
// events, a quarter of all schedulings cancelled before they fire — the
// shape of a Table-3 simulation's event traffic.
func BenchmarkEngine(b *testing.B) {
	const pending = 300
	rng := rand.New(rand.NewSource(1))
	eng := NewEngine()
	evs := make([]Event, pending)
	for i := range evs {
		ev := &evs[i]
		ev.Fn = func() {
			eng.Schedule(ev, eng.Now()+rng.ExpFloat64()*1e-3)
			// One fire in three moves another event: a cancel plus a
			// fresh schedule, so 1 of every 4 schedulings is cancelled.
			if rng.Intn(3) == 0 {
				other := &evs[rng.Intn(pending)]
				if other.Pending() {
					other.Cancel()
					eng.Schedule(other, eng.Now()+rng.ExpFloat64()*1e-3)
				}
			}
		}
		eng.Schedule(ev, rng.ExpFloat64()*1e-3)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives every timed component in the repository: the flow-level
// network simulator, the pipeline-schedule executor, and the end-to-end
// trainer. Time is virtual (measured in seconds as float64); events fire in
// (time, sequence) order so that simulations are fully reproducible.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation.
type Time = float64

// Event is a scheduled callback. Events compare by (At, seq): two events at
// the same instant fire in scheduling order, which keeps runs deterministic.
//
// An Event is either engine-allocated (returned by At and After) or
// caller-owned: embedded in a longer-lived value and queued with Schedule,
// then rescheduled after it fires or is cancelled. Caller-owned events let
// hot producers (netsim flows, pipeline stages) run without allocating per
// event.
type Event struct {
	At  Time
	Fn  func()
	seq uint64
	eng *Engine // set while queued, nil otherwise
	pos int     // index in eng.pending while queued
}

// Pending reports whether the event is queued and has not yet fired or
// been cancelled.
func (e *Event) Pending() bool { return e != nil && e.eng != nil }

// Cancel removes a pending event from its engine's queue. Cancelling an
// already-fired or already-cancelled event, or one whose engine has been
// Reset since it was scheduled, is a no-op.
func (e *Event) Cancel() {
	if e == nil || e.eng == nil {
		return
	}
	e.eng.remove(e.pos)
}

// less orders events by (At, seq), the engine's total firing order.
func less(a, b *Event) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

// arity is the heap's fan-out: a 4-ary heap is half as tall as a binary
// one, and the siblings compared at each level are adjacent in memory.
const arity = 4

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	pending []*Event // arity-ary min-heap on (At, seq); every entry is live
	nextSeq uint64
	fired   uint64
	running bool
	halted  bool
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.pending) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := &Event{Fn: fn}
	e.Schedule(ev, t)
	return ev
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Schedule queues a caller-owned event to run ev.Fn at absolute virtual
// time t, taking the next sequence number exactly as At does. The event
// must not be pending: to move a queued event, Cancel it first. Like At,
// scheduling in the past or at NaN panics.
func (e *Engine) Schedule(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	if ev.eng != nil {
		panic("sim: scheduling an event that is already pending")
	}
	ev.At = t
	ev.seq = e.nextSeq
	e.nextSeq++
	ev.eng = e
	ev.pos = len(e.pending)
	e.pending = append(e.pending, ev)
	e.up(ev.pos)
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event fired.
func (e *Engine) Step() bool {
	if len(e.pending) == 0 {
		return false
	}
	ev := e.pending[0]
	e.remove(0)
	e.now = ev.At
	e.fired++
	ev.Fn()
	return true
}

// Run fires events until none remain (or Halt is called), returning the
// final virtual time.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for !e.halted && e.Step() {
	}
	return e.now
}

// RunUntil fires events with At <= deadline; the clock ends at
// min(deadline, last event time) if events remain, else at the last event.
// A Halt from inside an event callback stops the loop immediately, leaving
// the clock where the halting event fired.
func (e *Engine) RunUntil(deadline Time) Time {
	for !e.halted && len(e.pending) > 0 && e.pending[0].At <= deadline {
		e.Step()
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Halt makes Run and RunUntil return before firing their next event. An
// event callback calls it when it can prove the rest of the simulation is
// not worth computing (branch-and-bound aborts); the queue is left as-is,
// so the simulation state is abandoned, not completed.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called since the last Reset.
func (e *Engine) Halted() bool { return e.halted }

// Reset returns the engine to time zero with no pending events. Events
// still queued are detached: they report not pending, and cancelling
// them is a no-op.
func (e *Engine) Reset() {
	for i, ev := range e.pending {
		ev.eng = nil
		e.pending[i] = nil
	}
	e.pending = e.pending[:0]
	e.now = 0
	e.nextSeq = 0
	e.fired = 0
	e.halted = false
}

// remove takes the event at heap position i out of the queue and detaches
// it, moving the last entry into the hole and restoring heap order.
func (e *Engine) remove(i int) {
	h := e.pending
	h[i].eng = nil
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].pos = i
	}
	h[last] = nil
	e.pending = h[:last]
	if i < last && !e.down(i) {
		e.up(i)
	}
}

// up sifts the event at position i toward the root.
func (e *Engine) up(i int) {
	h := e.pending
	ev := h[i]
	for i > 0 {
		p := (i - 1) / arity
		if !less(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = i
		i = p
	}
	h[i] = ev
	ev.pos = i
}

// down sifts the event at position i toward the leaves, reporting whether
// it moved.
func (e *Engine) down(i int) bool {
	h := e.pending
	n := len(h)
	ev := h[i]
	start := i
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		best := c
		for k := c + 1; k < c+arity && k < n; k++ {
			if less(h[k], h[best]) {
				best = k
			}
		}
		if !less(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].pos = i
		i = best
	}
	h[i] = ev
	ev.pos = i
	return i != start
}

// Package events is the live-observability spine of the serve daemon:
// a tiny in-process pub/sub hub that the fleet operator (and anything
// else with state transitions worth watching) publishes into, and that
// the /v1/events SSE endpoint drains per subscriber.
//
// The hub is deliberately goroutine-free. Publish stamps a stream
// sequence number under the hub lock and fans the event out with
// non-blocking sends into each subscriber's bounded channel; a
// subscriber whose buffer is full is evicted on the spot (its channel
// closed, the hub's dropped count bumped) rather than ever
// back-pressuring the publisher. That single rule gives the two
// properties the operator loop needs: publishing never blocks, and
// there is no relay goroutine to leak when a client goes away.
package events

import "sync"

// Event kinds. One stream carries them all; SSE frames use the kind as
// the `event:` field so EventSource clients can addEventListener per
// kind.
const (
	// KindJob is a job-state transition: State is the new state
	// (queued, running, done, unplaced, canceled), At the instant the
	// transition is effective on the fleet's wall clock.
	KindJob = "job"
	// KindScenario is scenario activity: a timeline edge firing
	// (State "fired", At = the edge's stamp) or a live fault applied
	// (State "applied").
	KindScenario = "scenario"
	// KindRetire is the idle-barrier retirement of a batch of finished
	// jobs; Jobs lists the retired IDs in the journal's sorted order.
	KindRetire = "retire"
)

// Event is one observable state change. Events that mirror a journal
// record carry the record's sequence number in JournalSeq, so a
// subscriber can check the stream against the journal record-for-record
// (DESIGN.md decision 14: events publish strictly after the journal
// write, never before).
type Event struct {
	// Seq is the hub's stream sequence: monotone, gap-free per hub,
	// assigned under the hub lock at publish time. SSE uses it as the
	// frame id.
	Seq uint64 `json:"seq"`
	// At is the instant the change is effective, in the fleet's wall
	// seconds (the operator epoch), not the instant it was observed —
	// derived transitions are stamped with the schedule edge that
	// caused them, which is what makes a scripted stream reproducible.
	At   float64 `json:"at"`
	Kind string  `json:"kind"`
	// Fleet is the owning fleet's topology fingerprint.
	Fleet string `json:"fleet,omitempty"`
	// Job and State describe KindJob transitions.
	Job   string `json:"job,omitempty"`
	State string `json:"state,omitempty"`
	// Payload carries the scenario event for KindScenario, as the
	// wire-shaped map the API already speaks. Kept schemaless here so
	// the events package stays import-light.
	Payload any `json:"payload,omitempty"`
	// Jobs lists retired IDs on KindRetire events.
	Jobs []string `json:"jobs,omitempty"`
	// JournalSeq links the event to the journal record that made it
	// durable (0 for derived events with no record of their own, like
	// a job crossing its start edge).
	JournalSeq uint64 `json:"journal_seq,omitempty"`
}

// DefaultBuffer is the per-subscriber channel capacity when Subscribe
// is given a non-positive size. Big enough to absorb a burst of a full
// fleet retiring; small enough that an abandoned consumer is evicted
// long before it holds meaningful memory.
const DefaultBuffer = 256

// Hub fans events out to subscribers. The zero value is not usable;
// call NewHub.
type Hub struct {
	mu        sync.Mutex
	seq       uint64
	subs      map[*Subscriber]struct{}
	closed    bool
	published uint64
	dropped   uint64
}

// NewHub returns an empty hub ready for publishers and subscribers.
func NewHub() *Hub {
	return &Hub{subs: make(map[*Subscriber]struct{})}
}

// Subscribe registers a new subscriber with the given buffer capacity
// (<= 0 means DefaultBuffer). On a closed hub the returned subscriber
// is already closed: its channel reads as done immediately.
func (h *Hub) Subscribe(buf int) *Subscriber {
	if buf <= 0 {
		buf = DefaultBuffer
	}
	s := &Subscriber{hub: h, ch: make(chan Event, buf)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(s.ch)
		return s
	}
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s
}

// Publish stamps ev with the next stream sequence and delivers it to
// every subscriber that has room. A subscriber with a full buffer is
// evicted — unregistered and its channel closed — so Publish never
// blocks, no matter how slow or absent the consumers are. Publishing
// on a closed hub is a no-op.
func (h *Hub) Publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev.Seq = h.seq
	h.published++
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			// Slow consumer: cut it loose rather than stall the
			// publisher (the operator loop may be on the other end).
			delete(h.subs, s)
			close(s.ch)
			h.dropped++
		}
	}
}

// Close evicts every subscriber (closing their channels) and marks the
// hub closed; later Publish calls are no-ops and later Subscribes
// return already-closed subscribers. Safe to call more than once.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		close(s.ch)
	}
}

// HubStats is a point-in-time health snapshot of the hub, surfaced on
// /v1/stats.
type HubStats struct {
	// Subscribers currently registered.
	Subscribers int `json:"subscribers"`
	// Published counts events accepted by Publish over the hub's life.
	Published uint64 `json:"published"`
	// Dropped counts subscribers evicted for falling behind.
	Dropped uint64 `json:"dropped"`
	// Seq is the last stream sequence assigned.
	Seq uint64 `json:"seq"`
}

// Stats reports the hub's counters.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStats{
		Subscribers: len(h.subs),
		Published:   h.published,
		Dropped:     h.dropped,
		Seq:         h.seq,
	}
}

// Subscriber is one registered consumer. Read Events until it closes;
// call Close when done (idempotent, also safe after eviction).
type Subscriber struct {
	hub *Hub
	ch  chan Event
}

// Events is the subscriber's delivery channel. It closes when the
// subscriber is evicted for falling behind, when it is Closed, or when
// the hub shuts down.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Close unregisters the subscriber and closes its channel. Safe to
// call concurrently with Publish and safe to call twice: the hub lock
// serializes the close against in-flight sends, and a subscriber
// already evicted (or on a closed hub) is left alone.
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; !ok {
		return // already evicted, closed, or hub shut down
	}
	delete(h.subs, s)
	close(s.ch)
}

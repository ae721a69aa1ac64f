package events

import (
	"sync"
	"testing"
)

func TestHubDeliversInOrder(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub := h.Subscribe(8)
	for i := 0; i < 5; i++ {
		h.Publish(Event{Kind: KindJob, Job: "w1"})
	}
	for want := uint64(1); want <= 5; want++ {
		ev := <-sub.Events()
		if ev.Seq != want {
			t.Fatalf("seq = %d, want %d", ev.Seq, want)
		}
	}
	if st := h.Stats(); st.Published != 5 || st.Subscribers != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A subscriber that never reads must not block the publisher: it is
// evicted the moment its buffer overflows, and the fast subscriber
// alongside it keeps receiving everything.
func TestHubEvictsSlowConsumer(t *testing.T) {
	h := NewHub()
	defer h.Close()
	slow := h.Subscribe(2)
	fast := h.Subscribe(16)

	for i := 0; i < 3; i++ { // third publish overflows slow's buffer
		h.Publish(Event{Kind: KindJob})
	}

	// slow's channel: two buffered events, then closed.
	n := 0
	for range slow.Events() {
		n++
	}
	if n != 2 {
		t.Fatalf("slow drained %d events before close, want 2", n)
	}
	for want := uint64(1); want <= 3; want++ {
		if ev := <-fast.Events(); ev.Seq != want {
			t.Fatalf("fast saw seq %d, want %d", ev.Seq, want)
		}
	}
	st := h.Stats()
	if st.Subscribers != 1 || st.Dropped != 1 {
		t.Fatalf("stats after eviction = %+v", st)
	}
}

// Close is safe against concurrent publishes and double closes; a
// closed subscriber stops receiving without disturbing others. Run
// under -race this is the hub's memory-safety test.
func TestHubConcurrentPublishSubscribeClose(t *testing.T) {
	h := NewHub()
	defer h.Close()
	// Subscribers register before any publish so every one of them
	// either receives events or gets evicted — a reader can never
	// block on a channel nothing will ever touch again.
	subs := make([]*Subscriber, 8)
	for c := range subs {
		subs[c] = h.Subscribe(4) // tiny buffer: evictions likely
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Publish(Event{Kind: KindJob})
			}
		}()
	}
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *Subscriber) {
			defer wg.Done()
			// Read a few events (or hit the eviction close), then walk
			// away mid-stream — the mix -race needs to see.
			for i := 0; i < 4; i++ {
				if _, ok := <-sub.Events(); !ok {
					return
				}
			}
			sub.Close()
			sub.Close() // double close must be safe
		}(sub)
	}
	wg.Wait()
	if st := h.Stats(); st.Published != 800 {
		t.Fatalf("published = %d, want 800", st.Published)
	}
}

func TestHubCloseUnblocksSubscribers(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(4)
	h.Publish(Event{Kind: KindJob, Job: "w1"})
	h.Close()
	h.Close() // idempotent
	ev, ok := <-sub.Events()
	if !ok || ev.Job != "w1" {
		t.Fatalf("buffered event lost on close: %+v ok=%v", ev, ok)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel still open after hub close")
	}
	if st := h.Stats(); st.Dropped != 0 {
		t.Fatal("hub close must not count as a slow-consumer drop")
	}
	// Publishing and subscribing after close are harmless no-ops.
	h.Publish(Event{Kind: KindJob})
	late := h.Subscribe(1)
	if _, ok := <-late.Events(); ok {
		t.Fatal("late subscriber channel not closed")
	}
	late.Close() // must not panic on an unregistered subscriber
}

func TestSubscriberCloseFreesSlot(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub := h.Subscribe(1)
	sub.Close()
	if st := h.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscribers = %d after close, want 0", st.Subscribers)
	}
	h.Publish(Event{Kind: KindJob}) // must not panic on closed channel
}

// Package sched is a deterministic discrete-event scheduler over the
// simulated clock: an event heap keyed by sim.Time with stable
// tie-breaking, plus a seeded RNG for callers that need randomised
// arrivals. It is the substrate internal/server uses to interleave
// many closed-loop clients against one file system.
//
// The loop is single-threaded by construction — no goroutines, no
// channels, no wall clock — so a run is a pure function of the seed
// and the handlers' behaviour: two runs with the same seed produce
// the same event order, the same simulated timeline, and byte-for-byte
// identical traces. Events scheduled for the same instant fire in
// scheduling order (a monotone sequence number breaks ties), which is
// what makes the interleaving reproducible rather than map-order or
// heap-internals dependent.
package sched

import (
	"container/heap"
	"fmt"
	"math/rand"

	"lfs/internal/sim"
)

// EventID identifies a scheduled event for cancellation. The zero ID
// is never issued.
type EventID uint64

// event is one scheduled callback.
type event struct {
	at   sim.Time
	seq  uint64 // scheduling order, the tie-breaker
	name string
	fn   func()
	// cancelled events stay in the heap (removing from a heap's
	// middle is O(n)) but are discarded when they surface, without
	// advancing the clock or counting as processed.
	cancelled bool
}

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return out
}

// Loop is a discrete-event loop bound to a simulated clock. It is not
// safe for concurrent use: handlers run on the caller's goroutine, in
// event order.
type Loop struct {
	clock *sim.Clock
	rng   *rand.Rand
	heap  eventHeap
	seq   uint64
	// pending maps live (uncancelled, unrun) event IDs to their
	// events so Cancel is O(1); ncancelled counts tombstones still in
	// the heap so Len stays exact.
	pending    map[EventID]*event
	ncancelled int
	// free holds the events that have left the heap — run, or
	// cancelled and purged — for At to fill again, so a loop whose
	// handlers each schedule a successor allocates no event. An
	// EventID cannot reach an event's next occupant: IDs come from
	// seq, which is never reused, and Cancel looks them up in
	// pending, which an event leaves before it is freed.
	free []*event
	// running guards against re-entrant Step/Run from inside a
	// handler, which would pop events out from under the loop.
	running bool
}

// NewLoop returns an empty loop on the given clock with an RNG seeded
// from seed. The clock is shared with the systems the handlers drive
// (file systems, disks), so handler work advances the same timeline
// the heap is keyed by.
func NewLoop(clock *sim.Clock, seed int64) *Loop {
	if clock == nil {
		panic("sched: nil clock")
	}
	return &Loop{
		clock:   clock,
		rng:     rand.New(rand.NewSource(seed)),
		pending: make(map[EventID]*event),
	}
}

// Clock returns the loop's simulated clock.
func (l *Loop) Clock() *sim.Clock { return l.clock }

// RNG returns the loop's seeded random source. Handlers that need
// randomness must draw from it (or from their own seeded sources);
// anything else breaks same-seed reproducibility.
func (l *Loop) RNG() *rand.Rand { return l.rng }

// Len returns the number of pending (uncancelled) events.
func (l *Loop) Len() int { return len(l.heap) - l.ncancelled }

// At schedules fn at absolute simulated time t. Scheduling in the past
// is allowed — the event fires as soon as the loop reaches it, with
// the clock unchanged — because a handler may consume more simulated
// time than the gap to the next event (the server is busy; the event
// was queued). The name labels the event for debugging. The returned
// ID cancels the event via Cancel.
func (l *Loop) At(t sim.Time, name string, fn func()) EventID {
	if fn == nil {
		panic("sched: nil event func")
	}
	l.seq++
	var ev *event
	if n := len(l.free) - 1; n >= 0 {
		ev, l.free = l.free[n], l.free[:n]
	} else {
		ev = new(event)
	}
	*ev = event{at: t, seq: l.seq, name: name, fn: fn}
	heap.Push(&l.heap, ev)
	l.pending[EventID(l.seq)] = ev
	return EventID(l.seq)
}

// After schedules fn d after the current simulated time.
func (l *Loop) After(d sim.Duration, name string, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sched: negative delay %v", d))
	}
	return l.At(l.clock.Now().Add(d), name, fn)
}

// Cancel unschedules a pending event: it will not run, not advance
// the clock to its time, and not count as processed. Reports whether
// the event was still pending (false once it has run or was already
// cancelled). Cancelling from inside a handler is allowed, including
// self-cancellation of a later occurrence.
func (l *Loop) Cancel(id EventID) bool {
	ev, ok := l.pending[id]
	if !ok {
		return false
	}
	delete(l.pending, id)
	ev.cancelled = true
	ev.fn = nil
	l.ncancelled++
	return true
}

// purgeCancelled drops cancelled tombstones sitting at the front of
// the heap so the earliest live event is at the top.
func (l *Loop) purgeCancelled() {
	for len(l.heap) > 0 && l.heap[0].cancelled {
		l.free = append(l.free, heap.Pop(&l.heap).(*event))
		l.ncancelled--
	}
}

// Step runs the earliest pending event, advancing the clock to its
// scheduled time first (never backwards). It returns the event's name
// and true, or "" and false when no events are pending.
func (l *Loop) Step() (string, bool) {
	l.purgeCancelled()
	if len(l.heap) == 0 {
		return "", false
	}
	if l.running {
		panic("sched: re-entrant Step from inside a handler")
	}
	ev := heap.Pop(&l.heap).(*event)
	delete(l.pending, EventID(ev.seq))
	l.clock.AdvanceTo(ev.at)
	// The handler may schedule into the event it ran from.
	name, fn := ev.name, ev.fn
	ev.fn = nil
	l.free = append(l.free, ev)
	l.running = true
	fn()
	l.running = false
	return name, true
}

// Run steps until no events remain and returns the number of events
// processed by this call. Handlers may schedule further events; the
// loop keeps going until the heap is empty.
func (l *Loop) Run() int64 {
	var n int64
	for {
		if _, ok := l.Step(); !ok {
			return n
		}
		n++
	}
}

package sched

import (
	"testing"

	"lfs/internal/sim"
)

// TestEventOrder verifies time ordering and stable tie-breaking: same
// instant fires in scheduling order.
func TestEventOrder(t *testing.T) {
	clock := sim.NewClock()
	l := NewLoop(clock, 1)
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	l.At(20, "c", rec("c"))
	l.At(10, "a1", rec("a1"))
	l.At(10, "a2", rec("a2"))
	l.At(15, "b", rec("b"))
	l.At(10, "a3", rec("a3"))
	if n := l.Run(); n != 5 {
		t.Fatalf("Run processed %d events, want 5", n)
	}
	want := []string{"a1", "a2", "a3", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if clock.Now() != 20 {
		t.Errorf("clock at %v, want 20ns", clock.Now())
	}
}

// TestPastEventsRunWithoutRewind confirms an event scheduled before
// the current clock fires without moving the clock backwards.
func TestPastEventsRunWithoutRewind(t *testing.T) {
	clock := sim.NewClock()
	l := NewLoop(clock, 1)
	var at []sim.Time
	l.At(5, "slow", func() {
		clock.Advance(100) // handler consumes simulated time
		at = append(at, clock.Now())
	})
	l.At(10, "queued", func() { at = append(at, clock.Now()) })
	l.Run()
	if at[0] != 105 || at[1] != 105 {
		t.Errorf("handler times %v, want [105 105]", at)
	}
}

// TestHandlersScheduleMore verifies events scheduled from inside a
// handler are processed.
func TestHandlersScheduleMore(t *testing.T) {
	clock := sim.NewClock()
	l := NewLoop(clock, 1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			l.After(10, "tick", tick)
		}
	}
	l.At(0, "tick", tick)
	if n := l.Run(); n != 5 || count != 5 {
		t.Fatalf("Run processed %d events and %d ticks, want 5 and 5", n, count)
	}
	if l.Len() != 0 || clock.Now() != 40 {
		t.Fatalf("%d events pending at %v, want 0 at 40ns", l.Len(), clock.Now())
	}
}

// TestDeterminism runs the same randomized schedule twice and demands
// identical event orders and timelines.
func TestDeterminism(t *testing.T) {
	run := func() ([]string, sim.Time) {
		clock := sim.NewClock()
		l := NewLoop(clock, 42)
		var names []string
		for i := 0; i < 3; i++ {
			id := byte('A' + i)
			var next func()
			n := 0
			next = func() {
				names = append(names, string(id))
				clock.Advance(sim.Duration(l.RNG().Int63n(1000)))
				n++
				if n < 20 {
					l.After(sim.Duration(l.RNG().Int63n(500)), "op", next)
				}
			}
			l.At(sim.Time(i), "op", next)
		}
		l.Run()
		return names, clock.Now()
	}
	n1, t1 := run()
	n2, t2 := run()
	if t1 != t2 {
		t.Fatalf("end times differ: %v vs %v", t1, t2)
	}
	if len(n1) != len(n2) {
		t.Fatalf("event counts differ: %d vs %d", len(n1), len(n2))
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("event %d differs: %s vs %s", i, n1[i], n2[i])
		}
	}
}

// TestReentrantStepPanics guards the single-threaded contract.
func TestReentrantStepPanics(t *testing.T) {
	l := NewLoop(sim.NewClock(), 1)
	l.At(0, "outer", func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Step did not panic")
			}
		}()
		l.At(1, "inner", func() {})
		l.Step()
	})
	l.Run()
}

// TestCancel verifies cancelled events neither run nor advance the
// clock, and that Len and Run's count exclude them.
func TestCancel(t *testing.T) {
	clock := sim.NewClock()
	l := NewLoop(clock, 1)
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	idA := l.At(10, "a", rec("a"))
	idB := l.At(20, "b", rec("b"))
	idC := l.At(30, "c", rec("c"))
	if !l.Cancel(idB) {
		t.Fatal("Cancel(b) = false, want true")
	}
	if l.Cancel(idB) {
		t.Fatal("second Cancel(b) = true, want false")
	}
	if l.Len() != 2 {
		t.Fatalf("Len() = %d after cancel, want 2", l.Len())
	}
	if n := l.Run(); n != 2 {
		t.Fatalf("Run processed %d events, want 2", n)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("ran %v, want [a c]", got)
	}
	if l.Cancel(idA) || l.Cancel(idC) {
		t.Fatal("Cancel of an already-run event = true, want false")
	}
	_ = idA
}

// TestCancelLastEventLeavesClock verifies the perturbation property
// the server's metrics pump relies on: cancelling the only remaining
// event means the loop drains without the clock reaching its time.
func TestCancelLastEventLeavesClock(t *testing.T) {
	clock := sim.NewClock()
	l := NewLoop(clock, 1)
	l.At(10, "op", func() {})
	id := l.At(1000, "pump", func() { t.Fatal("cancelled pump ran") })
	l.Step()
	if !l.Cancel(id) {
		t.Fatal("Cancel(pump) = false")
	}
	if n := l.Run(); n != 0 {
		t.Fatalf("Run processed %d events after cancel, want 0", n)
	}
	if clock.Now() != 10 {
		t.Fatalf("clock at %v, want 10 (cancelled event must not advance it)", clock.Now())
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", l.Len())
	}
}

// TestCancelFromHandler verifies a handler may cancel a later event.
func TestCancelFromHandler(t *testing.T) {
	clock := sim.NewClock()
	l := NewLoop(clock, 1)
	var ran []string
	var idLater EventID
	idLater = l.At(30, "later", func() { ran = append(ran, "later") })
	l.At(10, "canceller", func() {
		ran = append(ran, "canceller")
		l.Cancel(idLater)
	})
	if n := l.Run(); n != 1 {
		t.Fatalf("Run processed %d events, want 1", n)
	}
	if len(ran) != 1 || ran[0] != "canceller" {
		t.Fatalf("ran %v, want [canceller]", ran)
	}
	if clock.Now() != 10 {
		t.Fatalf("clock at %v, want 10", clock.Now())
	}
}

// TestRecycledEventKeepsItsOwnID: an event that has run, or was
// cancelled and purged, is filled again by a later At. The old ID must
// not cancel the new occupant, and the occupant starts uncancelled.
func TestRecycledEventKeepsItsOwnID(t *testing.T) {
	l := NewLoop(sim.NewClock(), 1)
	ran := 0
	count := func() { ran++ }
	idRun := l.At(10, "run", count)
	idCancelled := l.At(20, "cancelled", count)
	l.Cancel(idCancelled)
	l.Run() // runs one, purges the other: both events are free
	if ran != 1 || len(l.free) != 2 {
		t.Fatalf("ran %d events with %d free, want 1 and 2", ran, len(l.free))
	}
	first, second := l.free[1], l.free[0]
	idA := l.At(30, "a", count)
	idB := l.At(40, "b", count)
	if l.pending[idA] != first || l.pending[idB] != second {
		t.Fatal("At did not fill the freed events")
	}
	if l.Cancel(idRun) || l.Cancel(idCancelled) {
		t.Fatal("a stale ID cancelled the event's new occupant")
	}
	if n := l.Run(); n != 2 || ran != 3 {
		t.Fatalf("Run processed %d events (%d in all), want 2 (3)", n, ran)
	}
	if l.Cancel(idA) || l.Cancel(idB) {
		t.Fatal("Cancel of an already-run event = true, want false")
	}
}

// TestSteadyStateAllocatesNoEvent: a handler that schedules its
// successor fills the event it ran from.
func TestSteadyStateAllocatesNoEvent(t *testing.T) {
	l := NewLoop(sim.NewClock(), 1)
	var tick func()
	tick = func() { l.After(10, "tick", tick) }
	l.At(0, "tick", tick)
	l.Step()
	if n := testing.AllocsPerRun(1000, func() { l.Step() }); n != 0 {
		t.Fatalf("Step + After: %v allocs per event, want 0", n)
	}
}

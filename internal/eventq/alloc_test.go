package eventq

import (
	"testing"

	"switchpointer/internal/simtime"
)

// TestStepZeroAlloc gates the engine's steady-state allocation contract:
// with the free list warm, a schedule+Step cycle performs zero heap
// allocations.
func TestStepZeroAlloc(t *testing.T) {
	e := New()
	n := 0
	fn := func() { n++ }
	// Warm the arena.
	for i := 0; i < 64; i++ {
		e.At(e.Now()+1, fn)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Engine.Step steady state: %v allocs/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("events did not run")
	}
}

// TestFreshEngineAllocBudget gates what TestStepZeroAlloc cannot: the cost
// of getting to the steady state. A never-warmed engine that schedules and
// drains 100 000 events at the standing population the largest replay in
// the tree reaches (eventq.pending_peak = 300) allocates only for the
// Engine itself and the doublings of its event arena — the queue threads
// its buckets through the arena and owns no array — however many events
// pass through.
func TestFreshEngineAllocBudget(t *testing.T) {
	const standing, events, budget = 300, 100_000, 16
	n := 0
	fn := func() { n++ }
	allocs := testing.AllocsPerRun(3, func() {
		e := New()
		for i := 0; i < events; i++ {
			// Near-monotonic gaps with ties, the simulator's shape.
			e.At(e.Now()+simtime.Time(i%7)*100, fn)
			if e.Pending() > standing {
				e.Step()
			}
		}
		for e.Step() {
		}
	})
	if n != 4*events { // AllocsPerRun: one warm-up call, then the three it measures
		t.Fatalf("ran %d events, want %d", n, 4*events)
	}
	if allocs > budget {
		t.Fatalf("fresh engine, %d events at a standing population of %d: %v allocs, want <= %d", events, standing, allocs, budget)
	}
}

// TestStopRecycledTimerZeroAllocSafe exercises the generation guard under
// the same recycled-arena steady state the alloc gate runs in.
func TestStopRecycledTimerZeroAlloc(t *testing.T) {
	e := New()
	fn := func() {}
	stale := e.At(1, fn)
	e.Run() // fires and recycles the event
	// The recycled slot is reused by a new event; the stale handle must not
	// cancel it, and Stop must not allocate.
	e.At(2, fn)
	allocs := testing.AllocsPerRun(100, func() {
		if stale.Stop() {
			t.Fatal("stale Timer stopped a recycled event")
		}
	})
	if allocs != 0 {
		t.Fatalf("Timer.Stop: %v allocs/op, want 0", allocs)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
}

// Package eventq implements the discrete-event engine that drives the
// SwitchPointer testbed simulation.
//
// The engine is single-threaded and deterministic: events scheduled for the
// same virtual time fire in the order they were scheduled (FIFO tie-break via
// a monotonically increasing sequence number). All network, transport, agent
// and analyzer activity in the simulated testbed is expressed as events on a
// single Engine, so an entire experiment is a pure function of its inputs.
//
// The engine is built for zero steady-state heap allocations and minimal GC
// traffic: event bodies live in one engine-owned arena recycled through a
// free list, the scheduling queue works on pointer-free entries (the
// ordering keys inline plus an arena index, so the queue's arrays are
// invisible to the garbage collector), and Timer handles are
// generation-counted values so Stop on a handle whose event has already
// fired and been recycled is a safe no-op. At steady state (free list warm,
// queue at capacity) neither scheduling nor Step allocates.
//
// There is one scheduling queue, the 4-ary heap in heapq.go. A bucketed
// calendar queue with a small-population heap regime sat in front of it
// until PR 20: the largest replay in the tree never holds more than 300
// pending events, and there paired sim-replay runs (CHANGES.md PR 20) found
// even a calendar patched to reuse its bucket arrays not resolvably faster
// than the heap, while the shipped one spent ≈ 45 K allocations / 11 MB per
// replay re-growing buckets — so its 934 lines, the queue interface and
// five option surfaces were deleted.
package eventq

import (
	"switchpointer/internal/simtime"
)

// Func is the body of a scheduled event. It runs at the event's virtual time.
type Func func()

// noEvent marks the end of the free list.
const noEvent = int32(-1)

// event is one arena slot. Slots are recycled through the engine's free
// list; gen increments on every recycle so stale Timer handles can detect
// that their event is gone.
type event struct {
	fn   Func
	gen  uint32
	dead bool  // cancelled
	weak bool  // does not keep Run() alive
	next int32 // free-list link (arena index)
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// value is a valid, already-inert handle. Timers are values: copying one
// copies the handle, and all copies refer to the same scheduled event.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// Stop cancels the timer. It reports whether the event had not yet fired.
// Stopping an already-fired, already-stopped, or recycled timer is a no-op:
// the generation counter guards against the underlying arena slot having
// been reused for a different, later event.
func (t Timer) Stop() bool {
	if t.eng == nil {
		return false
	}
	ev := &t.eng.events[t.idx]
	if ev.gen != t.gen || ev.dead {
		return false
	}
	ev.dead = true
	if !ev.weak {
		t.eng.strong--
	}
	return true
}

// entry is one scheduling-queue element: the ordering keys inline plus the
// arena index of the event. Entries contain no pointers, so the queue's
// arrays are never scanned and entry moves incur no write barriers.
type entry struct {
	at  simtime.Time
	seq uint64
	idx int32
}

// before reports strict scheduling order: earlier time first, FIFO
// tie-break.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a deterministic discrete-event scheduler over virtual time.
// The zero value is not usable; construct with New.
type Engine struct {
	now       simtime.Time
	seq       uint64
	q         heapQueue
	events    []event // arena of event bodies
	free      int32   // head of the recycled-slot list
	processed uint64
	strong    int // pending non-weak events
}

// New returns an empty engine positioned at virtual time zero.
func New() *Engine {
	return &Engine{free: noEvent}
}

// Now returns the current virtual time. During an event callback this is the
// event's scheduled time.
func (e *Engine) Now() simtime.Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still scheduled (including cancelled
// events not yet reaped).
func (e *Engine) Pending() int { return e.q.length() }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: that is always a logic error in a discrete simulation.
func (e *Engine) At(t simtime.Time, fn Func) Timer {
	return e.schedule(t, fn, false)
}

// AtWeak schedules a weak event: it runs like any other when the clock
// reaches it, but pending weak events alone do not keep Run going. Use for
// open-ended maintenance work (epoch rotation, pollers) that should not
// make a finite workload run forever.
func (e *Engine) AtWeak(t simtime.Time, fn Func) Timer {
	return e.schedule(t, fn, true)
}

// alloc takes a recycled arena slot, or grows the arena.
func (e *Engine) alloc() int32 {
	if i := e.free; i != noEvent {
		e.free = e.events[i].next
		return i
	}
	e.events = append(e.events, event{})
	return int32(len(e.events) - 1)
}

// release recycles an arena slot: the generation bump invalidates
// outstanding Timer handles and the closure reference is dropped so it can
// be collected.
func (e *Engine) release(i int32) {
	ev := &e.events[i]
	ev.gen++
	ev.fn = nil
	ev.dead = false
	ev.weak = false
	ev.next = e.free
	e.free = i
}

func (e *Engine) schedule(t simtime.Time, fn Func, weak bool) Timer {
	if t < e.now {
		panic("eventq: scheduling event in the past")
	}
	i := e.alloc()
	ev := &e.events[i]
	ev.fn = fn
	ev.weak = weak
	e.q.push(entry{at: t, seq: e.seq, idx: i})
	e.seq++
	if !weak {
		e.strong++
	}
	return Timer{eng: e, idx: i, gen: ev.gen}
}

// After schedules fn to run d nanoseconds after the current virtual time.
func (e *Engine) After(d simtime.Time, fn Func) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run repeatedly with the given period, starting at
// Now+period. The returned Timer cancels the *next* occurrence when stopped;
// stopping it permanently ends the series.
func (e *Engine) Every(period simtime.Time, fn Func) *Timer {
	return e.every(period, fn, false)
}

// EveryWeak is Every with weak events: the series runs whenever other work
// advances the clock past its ticks, but does not by itself keep Run alive.
func (e *Engine) EveryWeak(period simtime.Time, fn Func) *Timer {
	return e.every(period, fn, true)
}

func (e *Engine) every(period simtime.Time, fn Func, weak bool) *Timer {
	if period <= 0 {
		panic("eventq: non-positive period")
	}
	t := &Timer{}
	var tick Func
	tick = func() {
		fn()
		*t = e.schedule(e.now+period, tick, weak)
	}
	*t = e.schedule(e.now+period, tick, weak)
	return t
}

// Step runs the single earliest pending event. It reports false when the
// queue is empty. At steady state Step performs zero heap allocations: the
// popped event's arena slot returns to the free list before its body runs,
// so the body can reschedule without growing anything.
func (e *Engine) Step() bool {
	for e.q.length() > 0 {
		it := e.q.pop()
		ev := &e.events[it.idx]
		if ev.dead {
			e.release(it.idx)
			continue
		}
		if !ev.weak {
			e.strong--
		}
		fn := ev.fn
		e.release(it.idx)
		e.now = it.at
		e.processed++
		fn()
		return true
	}
	return false
}

// Run executes events until no non-weak work remains. Weak maintenance
// timers (epoch rotation, pollers) do not keep the run alive; they fire only
// while driven by remaining real work.
func (e *Engine) Run() {
	for e.strong > 0 && e.Step() {
	}
}

// RunUntil executes events with scheduled time ≤ t, then advances the clock
// to exactly t. Events scheduled later remain pending.
func (e *Engine) RunUntil(t simtime.Time) {
	for {
		at, ok := e.peek()
		if !ok || at > t {
			break
		}
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor executes events for d nanoseconds of virtual time from Now.
func (e *Engine) RunFor(d simtime.Time) { e.RunUntil(e.now + d) }

// peek reports the scheduled time of the earliest live event, discarding
// cancelled entries from the front of the queue as it goes.
func (e *Engine) peek() (simtime.Time, bool) {
	for e.q.length() > 0 {
		top := e.q.peek()
		if !e.events[top.idx].dead {
			return top.at, true
		}
		e.release(e.q.pop().idx)
	}
	return 0, false
}

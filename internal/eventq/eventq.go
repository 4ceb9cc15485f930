// Package eventq implements the discrete-event engine that drives the
// SwitchPointer testbed simulation.
//
// The engine is single-threaded and deterministic: events scheduled for the
// same virtual time fire in the order they were scheduled. All network,
// transport, agent and analyzer activity in the simulated testbed is
// expressed as events on a single Engine, so an entire experiment is a pure
// function of its inputs.
//
// Event bodies live in one engine-owned arena recycled through a free list,
// and Timer handles are generation-counted values, so Stop on a handle whose
// event has already fired and been recycled is a safe no-op.
//
// The scheduling queue is a radix heap over the events' virtual times
// (radixq.go). It fits because the engine is monotone — At panics on
// t < Now — and it is intrusive: its buckets are FIFO lists threaded through
// the arena's next link, the link a free slot uses for the free list. Ties
// need no sequence number: events due at the same time always share a
// bucket, a push appends to its bucket's tail, and a redistribution moves
// the lowest non-empty bucket, in order, into buckets that are all empty, so
// every bucket stays in schedule order. A push re-buckets every pending
// event only when it lands below the queue's lower bound, which happens
// only after RunUntil has looked past its horizon and the caller schedules
// between Now and what it saw. The queue performs no allocation, so once
// the arena holds the standing population neither scheduling nor Step
// allocates.
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
	at   simtime.Time
	gen  uint32
	dead bool  // cancelled
	weak bool  // does not keep Run() alive
	next int32 // free-list link while free, bucket link while queued
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

// Engine is a deterministic discrete-event scheduler over virtual time.
// The zero value is not usable; construct with New.
type Engine struct {
	now       simtime.Time
	q         radixQueue
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
func (e *Engine) Pending() int { return e.q.n }

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
	ev.at = t
	ev.weak = weak
	e.q.push(e.events, i)
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

// EveryWeak schedules fn to run repeatedly with the given period, starting
// at Now+period, as weak events: the series runs whenever other work
// advances the clock past its ticks, but does not by itself keep Run alive.
// The returned Timer cancels the *next* occurrence when stopped; stopping it
// permanently ends the series.
func (e *Engine) EveryWeak(period simtime.Time, fn Func) *Timer {
	if period <= 0 {
		panic("eventq: non-positive period")
	}
	t := &Timer{}
	var tick Func
	tick = func() {
		fn()
		*t = e.schedule(e.now+period, tick, true)
	}
	*t = e.schedule(e.now+period, tick, true)
	return t
}

// Step runs the single earliest pending event. It reports false when the
// queue is empty. At steady state Step performs zero heap allocations: the
// popped event's arena slot returns to the free list before its body runs,
// so the body can reschedule without growing anything.
func (e *Engine) Step() bool {
	for e.q.n > 0 {
		i := e.q.pop(e.events)
		ev := &e.events[i]
		if ev.dead {
			e.release(i)
			continue
		}
		if !ev.weak {
			e.strong--
		}
		fn := ev.fn
		e.now = ev.at
		e.release(i)
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

// peek reports the scheduled time of the earliest live event, discarding
// cancelled entries from the front of the queue as it goes.
func (e *Engine) peek() (simtime.Time, bool) {
	for e.q.n > 0 {
		if ev := &e.events[e.q.peek(e.events)]; !ev.dead {
			return ev.at, true
		}
		e.release(e.q.pop(e.events))
	}
	return 0, false
}

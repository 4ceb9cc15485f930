package eventq

import (
	"math/rand"
	"sort"
	"testing"

	"switchpointer/internal/simtime"
)

// modelEvent is the model's record of one scheduled event. Its position in
// the model's slice is its schedule order (the engine's seq).
type modelEvent struct {
	at      simtime.Time
	weak    bool
	stopped bool // Stop reported true before the event fired
	fired   bool
	timer   Timer
}

// orderModel drives an Engine and a trivial model side by side. The model
// is the specification: the events that fire, over a whole run, are exactly
// the never-stopped ones, in the order of a stable sort by time of their
// schedule order — whatever mix of Step/Run/RunUntil drove the clock, and
// whether they were scheduled from outside or from inside an event body.
type orderModel struct {
	t      *testing.T
	r      *rand.Rand
	e      *Engine
	gap    func(*rand.Rand) simtime.Time
	events []modelEvent
	fired  []int // model indices, in the order the engine ran them
	live   int   // scheduled, neither fired nor stopped
	strong int   // the non-weak ones among live
}

// schedule arms one event at now+gap on both sides. One body in eight
// schedules a child from inside the engine when it runs.
func (m *orderModel) schedule(weak bool) {
	id := len(m.events)
	at := m.e.Now() + m.gap(m.r)
	nest := m.r.Intn(8) == 0
	body := func() {
		ev := &m.events[id]
		if ev.fired || ev.stopped {
			m.t.Fatalf("event %d ran with fired=%v stopped=%v", id, ev.fired, ev.stopped)
		}
		if m.e.Now() != ev.at {
			m.t.Fatalf("event %d scheduled for %v ran at %v", id, ev.at, m.e.Now())
		}
		ev.fired = true
		m.fired = append(m.fired, id)
		m.retire(ev)
		if nest {
			m.schedule(false)
		}
	}
	var tm Timer
	if weak {
		tm = m.e.AtWeak(at, body)
	} else {
		tm = m.e.At(at, body)
	}
	m.events = append(m.events, modelEvent{at: at, weak: weak, timer: tm})
	m.live++
	if !weak {
		m.strong++
	}
}

// retire takes a fired or stopped event out of the live counts.
func (m *orderModel) retire(ev *modelEvent) {
	m.live--
	if !ev.weak {
		m.strong--
	}
}

// stop cancels a random event, live or not; Stop must report true exactly
// when the model still holds it pending.
func (m *orderModel) stop() (id int, stopped bool) {
	id = m.r.Intn(len(m.events))
	ev := &m.events[id]
	want := !ev.fired && !ev.stopped
	if got := ev.timer.Stop(); got != want {
		m.t.Fatalf("Stop(event %d: fired=%v stopped=%v) = %v, want %v", id, ev.fired, ev.stopped, got, want)
	}
	if want {
		ev.stopped = true
		m.retire(ev)
	}
	return id, want
}

// checkHorizon asserts RunUntil(t)'s contract: everything due has run,
// nothing later has, and the clock sits at t.
func (m *orderModel) checkHorizon(t simtime.Time) {
	if m.e.Now() != t {
		m.t.Fatalf("RunUntil(%v) left the clock at %v", t, m.e.Now())
	}
	for i := range m.events {
		ev := &m.events[i]
		if ev.stopped {
			continue
		}
		if due := ev.at <= t; due != ev.fired {
			m.t.Fatalf("after RunUntil(%v): event %d at %v fired=%v", t, i, ev.at, ev.fired)
		}
	}
}

// checkOrder is the contract itself: the fire trace equals the stable sort
// by time of every never-stopped event's schedule order.
func (m *orderModel) checkOrder() {
	var want []int
	for i := range m.events {
		if !m.events[i].stopped {
			want = append(want, i)
		}
	}
	sort.SliceStable(want, func(a, b int) bool { return m.events[want[a]].at < m.events[want[b]].at })
	if len(m.fired) != len(want) {
		m.t.Fatalf("%d events fired, model expects %d", len(m.fired), len(want))
	}
	for i := range want {
		if m.fired[i] != want[i] {
			m.t.Fatalf("fire order diverged at %d: engine ran event %d (at %v), model expects %d (at %v)",
				i, m.fired[i], m.events[m.fired[i]].at, want[i], m.events[want[i]].at)
		}
	}
}

// TestFireOrderMatchesModel pins the engine's ordering contract against a
// model instead of against a second queue implementation: random schedules
// with exact-time ties, stopped and re-armed timers, weak events, nested
// scheduling, drain/refill bursts and idle RunUntil jumps (after which work
// is scheduled ahead of a far-future straggler) must fire in exactly the
// order of a stable sort by (at, seq). The gap distributions are the shapes
// the simulator produces plus the two that historically broke queues here:
// sparse jumps and far stragglers.
func TestFireOrderMatchesModel(t *testing.T) {
	dists := []struct {
		name string
		gap  func(r *rand.Rand) simtime.Time
	}{
		{"near-monotonic", func(r *rand.Rand) simtime.Time { return simtime.Time(r.Intn(2000)) }},
		{"heavy-ties", func(r *rand.Rand) simtime.Time { return simtime.Time(r.Intn(3)) * 100 }},
		{"sparse-jumps", func(r *rand.Rand) simtime.Time {
			if r.Intn(10) == 0 {
				return simtime.Time(r.Intn(10)) * simtime.Second
			}
			return simtime.Time(r.Intn(50))
		}},
		{"far-stragglers", func(r *rand.Rand) simtime.Time {
			if r.Intn(100) == 0 {
				return simtime.Time(3600) * simtime.Second
			}
			return simtime.Time(r.Intn(500))
		}},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				m := &orderModel{t: t, r: rand.New(rand.NewSource(seed)), e: New(), gap: d.gap}
				for op := 0; op < 3000; op++ {
					switch k := m.r.Intn(16); {
					case m.live == 0 || k < 4:
						// Fill burst; one event in six is weak.
						for i := m.r.Intn(40) + 1; i > 0; i-- {
							m.schedule(m.r.Intn(6) == 0)
						}
					case k < 8:
						// Drain burst.
						for i := m.r.Intn(40) + 1; i > 0; i-- {
							if want := m.live > 0; m.e.Step() != want {
								t.Fatalf("Step() = %v, want %v", !want, want)
							}
						}
					case k < 10:
						m.stop()
					case k < 12:
						// Re-arm, the way a retransmit timer is: stop it, and
						// if it was still pending schedule its replacement.
						if id, stopped := m.stop(); stopped {
							m.schedule(m.events[id].weak)
						}
					case k < 14:
						// RunUntil: mostly a short slice, sometimes an idle
						// jump of seconds that leaves only stragglers behind;
						// the fills that follow land ahead of them.
						d := simtime.Time(m.r.Intn(3000))
						if m.r.Intn(4) == 0 {
							d = simtime.Time(m.r.Intn(5)+1) * simtime.Second
						}
						until := m.e.Now() + d
						m.e.RunUntil(until)
						m.checkHorizon(until)
					default:
						// Run ends on the last strong event: weak ones due
						// before it have run, later ones stay pending.
						before := len(m.fired)
						m.e.Run()
						if m.strong != 0 {
							t.Fatalf("Run returned with %d strong events pending", m.strong)
						}
						if n := len(m.fired); n > before && m.events[m.fired[n-1]].weak {
							t.Fatalf("Run kept going for weak event %d", m.fired[n-1])
						}
					}
				}
				// Drain everything, weak events included, then compare the
				// whole trace.
				for m.e.Step() {
				}
				if m.live != 0 || m.e.Pending() != 0 {
					t.Fatalf("drained engine: model holds %d live events, queue %d entries", m.live, m.e.Pending())
				}
				m.checkOrder()
				if got := m.e.Processed(); got != uint64(len(m.fired)) {
					t.Fatalf("Processed = %d, %d events ran", got, len(m.fired))
				}
			}
		})
	}
}

// TestIdleJumpThenEarlierSchedules is the hand-written form of the case the
// model test samples: RunUntil idles the clock forward past nothing while a
// far-future straggler is pending, then a dense burst is scheduled between
// the clock and the straggler. The burst runs first, in order.
func TestIdleJumpThenEarlierSchedules(t *testing.T) {
	e := New()
	var got []simtime.Time
	rec := func() { got = append(got, e.Now()) }
	e.At(3600*simtime.Second, rec)
	e.RunUntil(simtime.Second)
	if len(got) != 0 {
		t.Fatalf("straggler fired early at %v", got)
	}
	for i := 0; i < 100; i++ {
		e.At(simtime.Second+simtime.Time(i), rec)
	}
	e.Run()
	if len(got) != 101 {
		t.Fatalf("fired %d events, want 101", len(got))
	}
	for i := 0; i < 100; i++ {
		if got[i] != simtime.Second+simtime.Time(i) {
			t.Fatalf("event %d fired at %v", i, got[i])
		}
	}
	if got[100] != 3600*simtime.Second {
		t.Fatalf("straggler fired at %v", got[100])
	}
}

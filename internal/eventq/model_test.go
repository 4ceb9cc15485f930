package eventq

import (
	"math/rand"
	"sort"
	"testing"

	"switchpointer/internal/simtime"
)

// modelEvent is the model's record of one scheduled event. Its position in
// the model's slice is its schedule order.
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

// step applies one random operation to both sides: a fill or drain burst,
// a stop, a re-arm, a RunUntil slice or idle jump, or a Run.
func (m *orderModel) step() {
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
				m.t.Fatalf("Step() = %v, want %v", !want, want)
			}
		}
	case k < 10:
		m.stop()
	case k < 12:
		// Re-arm, the way a retransmit timer is: stop it, and if it was
		// still pending schedule its replacement.
		if id, stopped := m.stop(); stopped {
			m.schedule(m.events[id].weak)
		}
	case k < 14:
		// RunUntil: mostly a short slice, sometimes an idle jump of seconds
		// that leaves only stragglers behind; the fills that follow land
		// ahead of them.
		d := simtime.Time(m.r.Intn(3000))
		if m.r.Intn(4) == 0 {
			d = simtime.Time(m.r.Intn(5)+1) * simtime.Second
		}
		until := m.e.Now() + d
		m.e.RunUntil(until)
		m.checkHorizon(until)
	default:
		// Run ends on the last strong event: weak ones due before it have
		// run, later ones stay pending.
		before := len(m.fired)
		m.e.Run()
		if m.strong != 0 {
			m.t.Fatalf("Run returned with %d strong events pending", m.strong)
		}
		if n := len(m.fired); n > before && m.events[m.fired[n-1]].weak {
			m.t.Fatalf("Run kept going for weak event %d", m.fired[n-1])
		}
	}
}

// finish drains everything, weak events included, then compares the whole
// trace.
func (m *orderModel) finish() {
	for m.e.Step() {
	}
	if m.live != 0 || m.e.Pending() != 0 {
		m.t.Fatalf("drained engine: model holds %d live events, queue %d entries", m.live, m.e.Pending())
	}
	m.checkOrder()
	if got := m.e.Processed(); got != uint64(len(m.fired)) {
		m.t.Fatalf("Processed = %d, %d events ran", got, len(m.fired))
	}
}

// gapShapes are the delay distributions the model draws from: the shapes
// the simulator produces plus the two that historically broke queues here,
// sparse jumps and far stragglers.
var gapShapes = []struct {
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

// TestFireOrderMatchesModel pins the engine's ordering contract against a
// model instead of against a second queue implementation: random schedules
// with exact-time ties, stopped and re-armed timers, weak events, nested
// scheduling, drain/refill bursts and idle RunUntil jumps (after which work
// is scheduled ahead of a far-future straggler) must fire in exactly the
// order of a stable sort by time of their schedule order.
func TestFireOrderMatchesModel(t *testing.T) {
	for _, d := range gapShapes {
		t.Run(d.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				m := &orderModel{t: t, r: rand.New(rand.NewSource(seed)), e: New(), gap: d.gap}
				for op := 0; op < 3000; op++ {
					m.step()
				}
				m.finish()
			}
		})
	}
}

// byteSource is a rand.Source that reads fuzz input: each draw consumes two
// bytes, so rand.Intn(n) returns the next 16-bit value modulo n and every
// operation, gap and stop target the model picks comes from the input.
// Once the input runs out every draw is 1: an event then never schedules a
// nested child (that takes Intn(8) == 0), so the final drain ends.
type byteSource struct{ b []byte }

func (s *byteSource) Int63() int64 {
	if len(s.b) == 0 {
		return 1<<32 | 1
	}
	v := int64(s.b[0])
	if len(s.b) > 1 {
		v = v<<8 | int64(s.b[1])
	}
	s.b = s.b[min(2, len(s.b)):]
	return v<<32 | v
}

func (s *byteSource) Seed(int64) {}

// FuzzFireOrder drives the same model from fuzz input: the first byte picks
// the gap shape, the rest choose the operations until it runs out. Inputs
// past 4 KB are cut: each RunUntil checks every event the model holds, so
// the cost grows with the square of the input.
func FuzzFireOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 9, 0, 4, 0, 12, 0, 7, 0, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		data = data[:min(len(data), 4096)]
		src := &byteSource{b: data[1:]}
		shape := gapShapes[int(data[0])%len(gapShapes)]
		m := &orderModel{t: t, r: rand.New(src), e: New(), gap: shape.gap}
		for len(src.b) > 0 {
			m.step()
		}
		m.finish()
	})
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

// TestTiesSurviveRebase is the hand-written form of the one push that
// re-buckets the queue: RunUntil stops short of two events due at T, having
// looked ahead to T, and the caller then schedules one event before T and
// one more at T. The earlier one runs first, and the three at T keep the
// order they were scheduled in.
func TestTiesSurviveRebase(t *testing.T) {
	const T = simtime.Second
	e := New()
	var got string
	rec := func(name string) Func { return func() { got += name } }
	e.At(T, rec("A"))
	e.At(T, rec("B"))
	e.RunUntil(T - 10)
	e.At(T-5, rec("C"))
	e.At(T, rec("D"))
	e.Run()
	if got != "CABD" {
		t.Fatalf("fired %q, want CABD", got)
	}
}

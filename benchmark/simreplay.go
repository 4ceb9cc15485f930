package main

import (
	"context"
	"fmt"
	"math/rand"

	"switchpointer/internal/cluster"
	"switchpointer/internal/eventq"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// simServers is Fig 8's largest point: 96 flows between 2×96 hosts.
const simServers = 96

// simCounts is what one replay must reproduce exactly.
type simCounts struct {
	events, packets uint64
	alerts, records int
}

func countSim(s *cluster.Scenario) simCounts {
	c := simCounts{events: s.Testbed.Net.Engine.Processed(), alerts: len(s.Testbed.Alerts)}
	for _, ag := range s.Testbed.HostAgents {
		c.packets += ag.Received
		c.records += ag.Store.Len()
	}
	return c
}

// simRing is how many clock assignments sim-replay's operations cycle over.
const simRing = 16

// replay is one operation's result: the played-out scenario and the ring
// slot whose clock assignment it ran under.
type replay struct {
	s    *cluster.Scenario
	slot int
}

// setupSimReplay: one operation builds the loadimbalance testbed under the
// ring's next clock assignment and plays it to the horizon — what every spd
// start-up and every figure regeneration pays. Slot 0's first replay happens
// here and stays alive as the resident state heap_live_mb reports.
func setupSimReplay(p params) (*instance, error) {
	build := func(slot int) (*cluster.Scenario, error) {
		return cluster.BuildScenarioOpt("loadimbalance", 0, simServers, p.options(slot))
	}
	resident, err := build(0)
	if err != nil {
		return nil, err
	}
	resident.Run()
	first := countSim(resident)
	if first.packets == 0 || first.records == 0 {
		resident.Testbed.Close()
		return nil, fmt.Errorf("sim-replay: the first replay delivered nothing: %+v", first)
	}
	// want[slot] is what the slot's first replay counted: every later replay
	// under the same clocks must reproduce it exactly. Under any clocks the
	// same packets must arrive, raise the same alerts and fill the same
	// records — flows and host triggers run on true time; only the number of
	// epoch-rotation events can differ between assignments.
	want := make([]*simCounts, simRing)
	want[0] = &first

	next := 1 // slot 0 just ran
	take := func() int {
		slot := next % simRing
		next++
		return slot
	}
	inst := &instance{close: resident.Testbed.Close}
	inst.op = func(context.Context) (any, error) {
		r := replay{slot: take()}
		var err error
		if r.s, err = build(r.slot); err != nil {
			return nil, err
		}
		r.s.Run()
		return r, nil
	}
	inst.check = func(res any) error {
		r := res.(replay)
		got := countSim(r.s)
		r.s.Testbed.Close()
		if want[r.slot] == nil {
			want[r.slot] = &got
		}
		clockFree := got
		clockFree.events = first.events
		if got != *want[r.slot] || clockFree != first {
			return fmt.Errorf("replay diverged under clock assignment %d: %+v, want %+v", r.slot, got, *want[r.slot])
		}
		return nil
	}
	inst.traced = func(t *tracer) (opFunc, func(), error) {
		return func(ctx context.Context) (any, error) {
			slot := take()
			s, err := tracedReplay(ctx, t, func() (*cluster.Scenario, error) { return build(slot) })
			return replay{s: s, slot: slot}, err
		}, func() {}, nil
	}
	inst.layers = func(t *tracer, out map[string]float64) error {
		simLayers(t, out)
		return simRungs(p, uint64(t.avg("op:events")), int(t.avg("op:pending_peak")), out)
	}
	return inst, nil
}

// tracedReplay is the replay with a span around each half and a timing
// wrapper around every Switch.Pipeline entry. 205 354 stage calls per
// operation are folded into one aggregated switchagent.stage span: its
// length is the calls' summed time, its N their count.
func tracedReplay(ctx context.Context, t *tracer, build func() (*cluster.Scenario, error)) (*cluster.Scenario, error) {
	ctx, root := t.start(ctx, "bench.op")
	defer root.end()

	_, sp := t.start(ctx, "scenario.build")
	c0 := readCounters()
	s, err := build()
	buildAllocs := readCounters().sub(c0).allocs
	sp.end()
	if err != nil {
		return nil, err
	}

	var stageNs int64
	var stageCalls int
	for _, sw := range s.Testbed.Topo.Switches() {
		for i, stage := range sw.Pipeline {
			sw.Pipeline[i] = func(sw *netsim.Switch, p *netsim.Packet, in, out *netsim.Port, now simtime.Time) {
				t0 := t.now()
				stage(sw, p, in, out, now)
				stageNs += t.now() - t0
				stageCalls++
			}
		}
	}

	rctx, run := t.start(ctx, "netsim.run")
	// Playing the horizon out in 1 ms slices is the same simulation; the
	// slice boundaries are where the standing event population is sampled.
	peak := 0
	for at := simtime.Millisecond; at < s.Horizon; at += simtime.Millisecond {
		s.Testbed.Run(at)
		peak = max(peak, s.Testbed.Net.Engine.Pending())
	}
	s.Run()
	run.end()
	_, agg := t.start(rctx, "switchagent.stage")
	agg.s.Start, agg.s.End, agg.s.N = run.s.Start, run.s.Start+stageNs, stageCalls
	t.add(agg.s)

	got := countSim(s)
	t.sample("op:events", float64(got.events))
	t.sample("op:packets", float64(got.packets))
	t.sample("op:pending_peak", float64(peak))
	t.sample("op:build_allocs", float64(buildAllocs))
	t.sample("op:stage_ns", float64(stageNs)/float64(stageCalls))
	t.sample("op:stage_share", float64(stageNs)/run.s.dur()*100)
	return s, nil
}

func simLayers(t *tracer, out map[string]float64) {
	out["scenario.build_ms"] = t.p50("span:scenario.build") / 1e6
	out["scenario.build_allocs"] = t.avg("op:build_allocs")
	out["netsim.run_ms"] = t.p50("span:netsim.run") / 1e6
	out["netsim.ns_per_event"] = t.p50("span:netsim.run") / t.avg("op:events")
	out["netsim.pkts_per_op"] = t.avg("op:packets")
	out["eventq.events_per_op"] = t.avg("op:events")
	out["eventq.pending_peak"] = t.avg("op:pending_peak")
	out["switchagent.stage_calls_per_op"] = t.avg("op:n:switchagent.stage")
	out["switchagent.stage_ns"] = t.p50("op:stage_ns")
	out["switchagent.stage_share_pct"] = t.p50("op:stage_share")
}

// simRungs measures the write path's layers one at a time: their calls
// happen inside the simulator, where no wrapper reaches, so each is looped
// directly over its exported functions at the workload's geometry (192
// hosts, k = 3, α = 10 ms), on a packet captured from the real datapath.
func simRungs(p params, events uint64, standing int, out map[string]float64) error {
	s, err := cluster.BuildScenarioOpt("loadimbalance", 0, simServers, p.options(0))
	if err != nil {
		return err
	}
	tb := s.Testbed
	defer tb.Close()
	sl := tb.Switch("SL")
	ag := tb.SwitchAgents[sl.NodeID()]
	r1 := tb.Host("R1")

	// Capture one packet entering SL's pipeline (untagged) with the egress
	// it took, and the same flow's first packet as R1 received it (tagged).
	var fwd struct {
		pkt *netsim.Packet
		out *netsim.Port
		now simtime.Time
	}
	capture := func(_ *netsim.Switch, pkt *netsim.Packet, _, o *netsim.Port, now simtime.Time) {
		if fwd.pkt == nil && pkt.Flow.Dst == r1.IP() {
			fwd.pkt, fwd.out, fwd.now = pkt.Clone(), o, now
		}
	}
	sl.Pipeline = append([]netsim.PipelineFunc{capture}, sl.Pipeline...)
	var rx struct {
		pkt *netsim.Packet
		now simtime.Time
	}
	r1.OnReceive(func(pkt *netsim.Packet, now simtime.Time) {
		if rx.pkt == nil {
			rx.pkt, rx.now = pkt.Clone(), now
		}
	})
	tb.Run(5 * simtime.Millisecond)
	if fwd.pkt == nil || rx.pkt == nil {
		return fmt.Errorf("sim-replay rungs: no packet captured in 5 ms of simulation")
	}

	// eventq: At+Step with the standing population the replay showed. Each
	// event reschedules itself after a delay drawn from the simulator's mix:
	// mostly serialization and propagation delays, now and then a
	// millisecond-scale trigger or epoch timer.
	standing = max(standing, 1)
	rng := rand.New(rand.NewSource(p.seed))
	delays := make([]simtime.Time, 4096)
	for i := range delays {
		delays[i] = simtime.Time(1+rng.Intn(50)) * simtime.Microsecond
		if rng.Intn(16) == 0 {
			delays[i] = simtime.Time(1+rng.Intn(10)) * simtime.Millisecond
		}
	}
	spin := func(eng *eventq.Engine) {
		next := 0
		for j := 0; j < standing; j++ {
			var tick eventq.Func
			tick = func() {
				next++
				eng.After(delays[next%len(delays)], tick)
			}
			eng.At(simtime.Time(j)*simtime.Microsecond, tick)
		}
	}
	eng := eventq.New()
	spin(eng)
	out["eventq.step_ns"], out["eventq.step_allocs"] = rung(p.quick, 400_000, func(int) { eng.Step() })

	// A never-warmed engine scheduling and draining one replay's events: the
	// allocation debt a whole experiment pays before any steady state.
	if p.quick {
		events /= 20
	}
	fresh := eventq.New()
	c0 := readCounters()
	spin(fresh)
	for fresh.Processed() < events {
		fresh.Step()
	}
	out["eventq.fresh_run_allocs_per_kevent"] = float64(readCounters().sub(c0).allocs) / (float64(events) / 1000)

	// netsim: one packet host → switch → host on an idle two-link network,
	// no pipeline stage installed.
	net := netsim.New()
	h1, h2 := net.NewHost("a", netsim.IP(10, 9, 0, 1)), net.NewHost("b", netsim.IP(10, 9, 0, 2))
	sw := net.NewSwitch("s", 0)
	link := netsim.LinkConfig{RateBps: netsim.Rate10G, Delay: simtime.Microsecond}
	net.Connect(h1, sw, link)
	net.Connect(sw, h2, link)
	sw.SetRoute(h2.IP(), 1)
	flow := netsim.FlowKey{Src: h1.IP(), Dst: h2.IP(), SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
	out["netsim.forward_ns"], out["netsim.forward_allocs"] = rung(p.quick, 100_000, func(int) {
		pkt := netsim.AllocPacket()
		pkt.Flow, pkt.Size = flow, 1000
		h1.Send(pkt)
		net.Run()
	})

	// The per-packet switch stage, piece by piece.
	table := ag.MPH()
	hosts := tb.Topo.Hosts()
	out["mph.lookup_ns"], _ = rung(p.quick, 400_000, func(i int) {
		rungSink = table.Lookup(uint32(hosts[i%len(hosts)].IP()))
	})
	ptr, err := pointer.New(ag.Pointer().Config(), nil)
	if err != nil {
		return err
	}
	ptr.Advance(0)
	out["pointer.touch_ns"], _ = rung(p.quick, 400_000, func(i int) { ptr.Touch(i % len(hosts)) })
	advNs, _ := rung(p.quick, 20_000, func(i int) {
		ptr.Touch(i % len(hosts))
		ptr.Advance(simtime.Epoch(i + 1))
	})
	out["pointer.advance_us"] = advNs / 1e3
	emb, size := ag.Embedder(), fwd.pkt.Size
	out["header.embed_ns"], _ = rung(p.quick, 400_000, func(int) {
		fwd.pkt.NTag, fwd.pkt.Size = 0, size
		emb.Embed(sl, fwd.pkt, fwd.out, fwd.now)
	})

	// The per-packet host absorb, piece by piece.
	var decErr error
	out["header.decode_ns"], _ = rung(p.quick, 400_000, func(int) {
		if _, err := tb.Decoder.Decode(rx.pkt, rx.now, r1.Clock); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return decErr
	}
	dec, _ := tb.Decoder.Decode(rx.pkt, rx.now, r1.Clock)
	rec := flowrec.New(rx.pkt.Flow)
	out["flowrec.absorb_ns"], _ = rung(p.quick, 400_000, func(int) { rec.Absorb(rx.pkt, dec, rx.now) })
	st := store.New()
	first := st.Acquire(rx.pkt.Flow) // steady state: the flow is known and indexed
	first.Absorb(rx.pkt, dec, rx.now)
	st.Release(first)
	out["store.acquire_release_ns"], _ = rung(p.quick, 400_000, func(int) { st.Release(st.Acquire(rx.pkt.Flow)) })
	var newNs float64
	newNs, out["store.new_allocs"] = rung(p.quick, 10_000, func(int) { rungSink = store.New() })
	out["store.new_us"] = newNs / 1e3
	return nil
}

// rungSink keeps a rung's result alive so the compiler cannot drop the call.
var rungSink any

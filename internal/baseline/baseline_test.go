package baseline

import (
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// TestSamplerUndersamplesMicrobursts demonstrates §2.1: at a realistic
// 1-in-1000 sampling ratio, a 1 ms burst of m flows leaves almost no trace,
// while SwitchPointer's host records capture every burst flow.
func TestSamplerUndersamplesMicrobursts(t *testing.T) {
	s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 4, Microburst: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	sampler := NewPacketSampler(1000)
	sl := tb.Switch("SL")
	sl.Pipeline = append(sl.Pipeline, sampler.Stage())
	tb.Run(110 * simtime.Millisecond)

	// Each 1 ms burst flow carries ~83 packets; at 1-in-1000 most burst
	// flows are never sampled.
	burstFlowsSeen := 0
	burstFlowsTotal := 0
	for ip, ag := range tb.HostAgents {
		_ = ip
		for _, rec := range allRecords(t, ag.Store) {
			if rec.Flow.Proto == netsim.ProtoUDP && rec.Flow.DstPort >= 7000 && rec.Flow.DstPort < 7100 {
				burstFlowsTotal++
				if sampler.Seen(rec.Flow) > 0 {
					burstFlowsSeen++
				}
			}
		}
	}
	// 5 batches × 4 flows, each batch a distinct source port.
	if burstFlowsTotal != 20 {
		t.Fatalf("host records captured %d burst flows, want 20 (SwitchPointer sees everything)", burstFlowsTotal)
	}
	if burstFlowsSeen == burstFlowsTotal {
		t.Fatalf("sampler saw all burst flows — undersampling not demonstrated (seen=%d)", burstFlowsSeen)
	}
}

// TestCountersCannotDistinguishContentionKind demonstrates §2.1: the
// bottleneck's byte counters look the same under priority-based and
// microburst-based contention; only the per-flow priority in host telemetry
// separates them.
func TestCountersCannotDistinguishContentionKind(t *testing.T) {
	peak := map[bool]float64{}
	for _, micro := range []bool{false, true} {
		s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 8, Microburst: micro})
		if err != nil {
			t.Fatal(err)
		}
		tb := s.Testbed
		sl := tb.Switch("SL")
		poller := AttachCounterPoller(tb.Net, sl.Port(0), 10*simtime.Millisecond)
		tb.Run(110 * simtime.Millisecond)
		peak[micro] = poller.MaxUtilization()
	}
	// Both scenarios saturate the bottleneck: the counter view is
	// indistinguishable (within a few percent).
	diff := peak[false] - peak[true]
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.1 {
		t.Fatalf("counters distinguished the scenarios (%.3f vs %.3f) — unexpected", peak[false], peak[true])
	}
	if peak[false] < 0.9 {
		t.Fatalf("bottleneck not saturated: %.3f", peak[false])
	}
}

// TestRedLightsPredicateNeverFires demonstrates §2.2: each 400 µs red light
// queues at most ~50 KB (≈0.4 ms at 1G) at any single switch, so the classic
// "queueing delay > 1 ms" in-network predicate never fires — while the
// victim's destination sees its throughput collapse and SwitchPointer
// diagnoses the accumulation.
func TestRedLightsPredicateNeverFires(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	var probes []*QueueProbe
	for _, sw := range tb.Topo.Switches() {
		for _, pt := range sw.Ports() {
			if _, isSwitch := pt.Peer().Owner().(*netsim.Switch); isSwitch {
				probes = append(probes, AttachQueueProbe(tb.Net, pt, 50*simtime.Microsecond))
			}
		}
	}
	tb.Run(30 * simtime.Millisecond)

	for i, q := range probes {
		if q.PredicateFired(simtime.Millisecond) {
			t.Fatalf("probe %d: in-network predicate fired (delay %v) — red lights should stay under it", i, q.MaxDelay())
		}
	}
	// Yet the end host detected the problem.
	if _, ok := tb.AlertFor(s.Victim); !ok {
		t.Fatalf("host trigger did not fire")
	}
}

func TestSamplerBasics(t *testing.T) {
	s := NewPacketSampler(2)
	stage := s.Stage()
	for i := 0; i < 10; i++ {
		stage(nil, &netsim.Packet{Flow: netsim.FlowKey{Src: 1}, Size: 100}, nil, nil, simtime.Time(i))
	}
	if len(s.Samples) != 5 {
		t.Fatalf("1-in-2 sampled %d of 10", len(s.Samples))
	}
	if s.Seen(netsim.FlowKey{Src: 1}) != 5 || s.Seen(netsim.FlowKey{Src: 2}) != 0 {
		t.Fatalf("Seen wrong")
	}
	if s.SeenIn(0, 4) != 2 {
		t.Fatalf("SeenIn = %d", s.SeenIn(0, 4))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("ratio 0 should panic")
		}
	}()
	NewPacketSampler(0)
}

// allRecords collects every record of st through SnapshotShards, in
// flow-key order.
func allRecords(t testing.TB, st *store.RecordStore) []*flowrec.Record {
	t.Helper()
	var all []*flowrec.Record
	if err := st.SnapshotShards(store.EveryEpoch, func(seg []byte) error {
		recs, _, err := flowrec.DecodeSegment(seg, nil)
		all = append(all, recs...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	flowrec.SortRecords(all)
	return all
}

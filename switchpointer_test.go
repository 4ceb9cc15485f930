package switchpointer

import (
	"context"
	"testing"
)

// TestPublicAPIQuickstart walks the documented quick-start flow end to end
// through the facade only: functional options, the alert stream, and the
// unified query dispatch.
func TestPublicAPIQuickstart(t *testing.T) {
	tb, err := New(Dumbbell(3, 3), WithQueueDiscipline(QueuePriority))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	src := tb.Host("L1")
	dst := tb.Host("R1")
	victim := FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 10000, DstPort: 80, Proto: 6}
	StartTCP(tb.Net, src, dst, TCPConfig{Flow: victim, Priority: 1, Duration: 100 * Millisecond})

	aggSrc := tb.Host("L2")
	aggDst := tb.Host("R2")
	StartUDP(tb.Net, aggSrc, UDPConfig{
		Flow:     FlowKey{Src: aggSrc.IP(), Dst: aggDst.IP(), SrcPort: 7, DstPort: 7, Proto: 17},
		Priority: 7, RateBps: 1_000_000_000,
		Start: 50 * Millisecond, Duration: 5 * Millisecond,
	})
	alerts := tb.Subscribe(AlertFilter{Flow: victim})
	if end := tb.Run(120 * Millisecond); end != 120*Millisecond {
		t.Fatalf("Run returned %v, want 120ms", end)
	}

	var alert Alert
	select {
	case alert = <-alerts:
	default:
		t.Fatalf("no alert on the stream")
	}
	// The compatibility shim must agree with the stream.
	polled, ok := tb.AlertFor(victim)
	if !ok || polled.DetectedAt != alert.DetectedAt {
		t.Fatalf("AlertFor disagrees with Subscribe: %v vs %v", polled, alert)
	}

	rep, err := tb.Analyzer.Run(context.Background(), ContentionQuery{Alert: alert})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KindPriorityContention {
		t.Fatalf("kind = %v (%s)", rep.Kind, rep.Conclusion)
	}
	if len(rep.Culprits) != 1 || rep.Culprits[0].Flow.Dst != aggDst.IP() {
		t.Fatalf("culprits = %+v", rep.Culprits)
	}
	if rep.Total() <= 0 || rep.Total() > 100*Millisecond {
		t.Fatalf("diagnosis time = %v", rep.Total())
	}
	if len(rep.Consulted) != rep.HostsContacted {
		t.Fatalf("Consulted = %v, HostsContacted = %d", rep.Consulted, rep.HostsContacted)
	}
	// Asking again returns the same classification.
	again, err := tb.Analyzer.Run(context.Background(), ContentionQuery{Alert: alert})
	if err != nil {
		t.Fatal(err)
	}
	if again.Kind != rep.Kind {
		t.Fatalf("second run kind %v != %v", again.Kind, rep.Kind)
	}
}

// TestRunIdempotentPastEnd verifies the repaired Testbed.Run contract.
func TestRunIdempotentPastEnd(t *testing.T) {
	tb, err := New(Dumbbell(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if end := tb.Run(10 * Millisecond); end != 10*Millisecond {
		t.Fatalf("first Run = %v", end)
	}
	// Re-running to an earlier or equal time must not move the clock.
	if end := tb.Run(5 * Millisecond); end != 10*Millisecond {
		t.Fatalf("backwards Run = %v, want clock pinned at 10ms", end)
	}
	if end := tb.Run(10 * Millisecond); end != 10*Millisecond {
		t.Fatalf("repeat Run = %v", end)
	}
	if end := tb.Run(12 * Millisecond); end != 12*Millisecond {
		t.Fatalf("forward Run = %v", end)
	}
}

func TestPublicAPITopologies(t *testing.T) {
	for name, build := range map[string]BuildFunc{
		"dumbbell":  Dumbbell(2, 2),
		"chain":     Chain(1, 1),
		"leafspine": LeafSpine(2, 2, 1),
		"fattree":   FatTree(4),
		"parallel":  ParallelLinks(2, 2, 2),
	} {
		tb, err := NewTestbed(build, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Topo.Hosts()) == 0 || len(tb.SwitchAgents) == 0 {
			t.Fatalf("%s: empty testbed", name)
		}
	}
}

func TestPublicAPIINTMode(t *testing.T) {
	// Eps of 1 ns ≈ perfectly synchronized clocks (0 selects the default α).
	tb, err := NewTestbed(FatTree(4), Options{Mode: ModeINT, Eps: Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	hosts := tb.Topo.Hosts()
	src, dst := hosts[0], hosts[15]
	flow := FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2, Proto: 17}
	StartUDP(tb.Net, src, UDPConfig{Flow: flow, RateBps: 100_000_000, Duration: 5 * Millisecond})
	tb.Run(20 * Millisecond)
	rec, ok := tb.HostAgents[dst.IP()].Store.Lookup(flow)
	if !ok {
		t.Fatalf("no record under INT mode")
	}
	if len(rec.Path) != 5 {
		t.Fatalf("INT path = %v, want 5-switch inter-pod trajectory", rec.Path)
	}
	// With synchronized clocks and a single-epoch transfer, INT epochs are
	// exact at every hop.
	for i, er := range rec.Epochs {
		if er.Len() != 1 {
			t.Fatalf("hop %d epochs %v not exact", i, er)
		}
	}
}

func TestIPHelper(t *testing.T) {
	if IP(10, 1, 2, 3).String() != "10.1.2.3" {
		t.Fatalf("IP helper broken")
	}
	if DefaultCostModel().ConnInit <= 0 {
		t.Fatalf("cost model empty")
	}
}

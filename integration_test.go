package switchpointer

import (
	"context"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// TestIntegrationFatTreeContention runs the full system on a k=4 fat-tree
// with background traffic and diagnoses a contention event on an inter-pod
// path — exercising CherryPick reconstruction, epoch extrapolation across 5
// switches, pointer pulls at every layer, and pruning, all in one run.
func TestIntegrationFatTreeContention(t *testing.T) {
	tb, err := New(FatTree(4), WithQueueDiscipline(QueuePriority))
	if err != nil {
		t.Fatal(err)
	}
	hosts := tb.Topo.Hosts()
	src, dst := hosts[0], hosts[12] // pod 0 → pod 3 (inter-pod, 5 switches)

	victim := FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 10000, DstPort: 80, Proto: 6}
	StartTCP(tb.Net, src, dst, TCPConfig{Flow: victim, Priority: 1, Duration: 100 * Millisecond})

	// Background chatter across the fabric (different pods, low rate).
	for i := 0; i < 6; i++ {
		s := hosts[(i*3+1)%len(hosts)]
		d := hosts[(i*5+7)%len(hosts)]
		if s == d {
			continue
		}
		StartUDP(tb.Net, s, UDPConfig{
			Flow:    FlowKey{Src: s.IP(), Dst: d.IP(), SrcPort: uint16(6000 + i), DstPort: 53, Proto: 17},
			RateBps: 20_000_000, Start: 0, Duration: 100 * Millisecond,
		})
	}

	// The aggressor: high-priority burst sharing the victim's source edge
	// uplink. Host h0-0-1 shares src's ToR; send to the same destination
	// pod so the egress overlaps.
	agg := hosts[1]
	aggDst := hosts[13]
	aggFlow := FlowKey{Src: agg.IP(), Dst: aggDst.IP(), SrcPort: 7777, DstPort: 7, Proto: 17}
	StartUDP(tb.Net, agg, UDPConfig{
		Flow: aggFlow, Priority: 7, RateBps: 1_000_000_000,
		Start: 50 * Millisecond, Duration: 5 * Millisecond,
	})

	tb.Run(120 * Millisecond)

	alert, ok := tb.AlertFor(victim)
	if !ok {
		t.Skipf("ECMP placed victim and aggressor on disjoint uplinks; no contention this seed")
	}
	// The alert's tuples must cover the whole 5-switch trajectory.
	if len(alert.Tuples) != 5 {
		t.Fatalf("alert tuples = %d, want 5 (inter-pod path)", len(alert.Tuples))
	}
	d, err := tb.Analyzer.Run(context.Background(), ContentionQuery{Alert: alert})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind == analyzer.KindInconclusive {
		t.Fatalf("diagnosis inconclusive: %s", d.Conclusion)
	}
	found := false
	for _, c := range d.Culprits {
		if c.Flow == aggFlow {
			found = true
		}
	}
	if !found {
		t.Fatalf("aggressor not identified; culprits=%v", d.Culprits)
	}
}

// TestIntegrationOfflineDiagnosis exercises the push model: diagnose an
// event long after the fine-grained pointers recycled, using the top-level
// history pushed to the switch control plane (§4.1.1's offline path).
func TestIntegrationOfflineDiagnosis(t *testing.T) {
	// k=2 with α=10ms: top level covers 100 ms and pushes at that cadence.
	tb, err := New(Dumbbell(3, 3), WithQueueDiscipline(QueuePriority), WithLevels(2))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tb.Host("L1"), tb.Host("R1")
	victim := FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 10000, DstPort: 80, Proto: 6}
	StartTCP(tb.Net, src, dst, TCPConfig{Flow: victim, Priority: 1, Duration: 100 * Millisecond})
	aggSrc, aggDst := tb.Host("L2"), tb.Host("R2")
	aggFlow := FlowKey{Src: aggSrc.IP(), Dst: aggDst.IP(), SrcPort: 7, DstPort: 7, Proto: 17}
	StartUDP(tb.Net, aggSrc, UDPConfig{
		Flow: aggFlow, Priority: 7, RateBps: 1_000_000_000,
		Start: 50 * Millisecond, Duration: 5 * Millisecond,
	})
	tb.Run(120 * Millisecond)
	alert, ok := tb.AlertFor(victim)
	if !ok {
		t.Fatal("no alert")
	}

	// Let several seconds pass: every live slot for the event's epochs is
	// recycled; only the pushed control-plane history remains. Keep some
	// traffic flowing so epochs advance.
	StartUDP(tb.Net, tb.Host("L3"), UDPConfig{
		Flow:    FlowKey{Src: tb.Host("L3").IP(), Dst: tb.Host("R3").IP(), SrcPort: 9, DstPort: 9, Proto: 17},
		RateBps: 1_000_000, Start: 200 * Millisecond, Duration: 3 * simtime.Second,
	})
	tb.Run(3500 * Millisecond)

	d, err := tb.Analyzer.Run(context.Background(), ContentionQuery{Alert: alert})
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindPriorityContention {
		t.Fatalf("offline diagnosis kind = %v (%s)", d.Kind, d.Conclusion)
	}
	found := false
	for _, c := range d.Culprits {
		if c.Flow == aggFlow {
			found = true
		}
	}
	if !found {
		t.Fatalf("offline diagnosis missed the aggressor: %v", d.Culprits)
	}
}

// TestIntegrationHostChurn verifies the §4.1.2 correctness argument: a host
// going silent leaves only harmless stale bits, and an analyzer-driven MPH
// rebuild (membership change) keeps the system consistent.
func TestIntegrationHostChurn(t *testing.T) {
	tb, err := New(Dumbbell(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	src := tb.Host("L1")
	r1, r2 := tb.Host("R1"), tb.Host("R2")
	// Traffic to two hosts; then R2 "fails" (its flow simply stops).
	for i, dst := range []*Host{r1, r2} {
		StartUDP(tb.Net, src, UDPConfig{
			Flow:    FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: uint16(100 + i), DstPort: 9, Proto: 17},
			RateBps: 50_000_000, Start: 0, Duration: 20 * Millisecond,
		})
	}
	tb.Run(40 * Millisecond)

	sl := tb.Switch("SL")
	ag := tb.SwitchAgents[sl.NodeID()]
	res := ag.PullPointers(simtime.EpochRange{Lo: 0, Hi: 3})
	dir := tb.Analyzer.Dir
	if !res.Hosts.Get(dir.IndexOf(r1.IP())) || !res.Hosts.Get(dir.IndexOf(r2.IP())) {
		t.Fatalf("pre-churn pointers incomplete")
	}

	// R2's bit remains set for the old epochs — stale but harmless: the
	// analyzer simply contacts a host that reports no matching records.
	agR2 := tb.HostAgents[r2.IP()]
	ans := agR2.QueryHeadersMulti(context.Background(), []hostagent.HeadersQuery{{Switch: sl.NodeID(), Epochs: simtime.EpochRange{Lo: 1000, Hi: 1001}}})[0]
	if n, err := flowrec.SegmentRecords(ans.Segment); err != nil || n != 0 {
		t.Fatalf("silent host returned future records")
	}

	// Membership change: rebuild the directory without R2 and redistribute
	// (the §4.3 responsibility) — swapping the backend behind the Directory
	// seam without touching the analyzer's procedures.
	var ips []netsim.IPv4
	for _, h := range tb.Topo.Hosts() {
		if h.IP() != r2.IP() {
			ips = append(ips, h.IP())
		}
	}
	newDir, err := analyzer.NewMemoryDirectory(ips, tb.SwitchAgents)
	if err != nil {
		t.Fatal(err)
	}
	tb.Analyzer.Dir = newDir
	if err := newDir.Distribute(context.Background()); err != nil {
		t.Fatal(err)
	}

	// New traffic after the rebuild lands at the right indices.
	StartUDP(tb.Net, src, UDPConfig{
		Flow:    FlowKey{Src: src.IP(), Dst: r1.IP(), SrcPort: 300, DstPort: 9, Proto: 17},
		RateBps: 50_000_000, Start: 50 * Millisecond, Duration: 10 * Millisecond,
	})
	tb.Run(80 * Millisecond)
	e := ag.LocalEpochAt(60 * Millisecond)
	res = ag.PullPointers(simtime.EpochRange{Lo: e, Hi: e})
	if !res.Hosts.Get(newDir.IndexOf(r1.IP())) {
		t.Fatalf("post-rebuild pointers missing R1")
	}
}

// TestIntegrationDeterminism runs an identical contention scenario twice and
// requires bit-identical outcomes — the property all experiment claims rest
// on.
func TestIntegrationDeterminism(t *testing.T) {
	run := func() (simtime.Time, int, uint64) {
		tb, err := New(Chain(2, 2, 2), WithQueueDiscipline(QueuePriority), WithClockSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		a, f := tb.Host("h1-1"), tb.Host("h3-2")
		victim := FlowKey{Src: a.IP(), Dst: f.IP(), SrcPort: 1, DstPort: 2, Proto: 6}
		StartTCP(tb.Net, a, f, TCPConfig{Flow: victim, Priority: 1, Duration: 10 * Millisecond})
		b := tb.Host("h1-2")
		d := tb.Host("h2-2")
		StartUDP(tb.Net, b, UDPConfig{
			Flow:     FlowKey{Src: b.IP(), Dst: d.IP(), SrcPort: 3, DstPort: 4, Proto: 17},
			Priority: 7, RateBps: 1_000_000_000, Start: 5 * Millisecond, Duration: 400 * Microsecond})
		tb.Run(30 * Millisecond)
		alert, ok := tb.AlertFor(victim)
		if !ok {
			t.Fatal("no alert")
		}
		diag, err := tb.Analyzer.Run(context.Background(), ContentionQuery{Alert: alert})
		if err != nil {
			t.Fatal(err)
		}
		return alert.DetectedAt, len(diag.Culprits), tb.Net.Engine.Processed()
	}
	at1, nc1, ev1 := run()
	at2, nc2, ev2 := run()
	if at1 != at2 || nc1 != nc2 || ev1 != ev2 {
		t.Fatalf("non-deterministic: (%v,%d,%d) vs (%v,%d,%d)", at1, nc1, ev1, at2, nc2, ev2)
	}
}

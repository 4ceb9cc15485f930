package analyzer_test

import (
	"context"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/transport"
)

// run executes q through the one entry point and fails the test on error.
func run(t *testing.T, a *analyzer.Analyzer, q analyzer.Query) *analyzer.Report {
	t.Helper()
	rep, err := a.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("Run(%s): %v", q.Name(), err)
	}
	return rep
}

func TestDirectory(t *testing.T) {
	ips := []netsim.IPv4{netsim.IP(10, 0, 0, 1), netsim.IP(10, 0, 0, 2), netsim.IP(10, 0, 0, 3)}
	dir, err := analyzer.NewMemoryDirectory(ips, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Len() != 3 {
		t.Fatalf("Len = %d", dir.Len())
	}
	seen := map[int]bool{}
	for _, ip := range ips {
		idx := dir.IndexOf(ip)
		if idx < 0 || idx >= 3 || seen[idx] {
			t.Fatalf("bad index %d for %s", idx, ip)
		}
		seen[idx] = true
		if dir.IPAt(idx) != ip {
			t.Fatalf("inverse broken for %s", ip)
		}
	}
	if _, err := analyzer.NewMemoryDirectory(nil, nil); err == nil {
		t.Fatalf("empty directory accepted")
	}
}

// --- §5.1 Too much traffic: priority contention ---

func TestDiagnosePriorityContention(t *testing.T) {
	s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(110 * simtime.Millisecond)

	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Fatalf("victim never triggered (alerts: %d)", len(tb.Alerts))
	}
	d := run(t, tb.Analyzer, analyzer.ContentionQuery{Alert: alert})
	if d.Kind != analyzer.KindPriorityContention {
		t.Fatalf("kind = %v (%s)", d.Kind, d.Conclusion)
	}
	// The culprits must be the burst flows: high priority, distinct dsts.
	if len(d.Culprits) == 0 || len(d.Culprits) > 4 {
		t.Fatalf("culprits = %d", len(d.Culprits))
	}
	for _, c := range d.Culprits {
		if c.Priority != scenario.PrioHigh {
			t.Fatalf("culprit %v priority %d", c.Flow, c.Priority)
		}
		if c.Flow.Proto != netsim.ProtoUDP {
			t.Fatalf("culprit %v not UDP", c.Flow)
		}
	}
	// Single contention point: the dumbbell's left switch only.
	switches := map[netsim.NodeID]bool{}
	for _, c := range d.Culprits {
		switches[c.Switch] = true
	}
	if len(switches) != 1 {
		t.Fatalf("culprits %v name %d switches (want contention at one switch)", d.Culprits, len(switches))
	}
	// Timing: the paper debugs this in under 100 ms (Fig 7).
	if d.Total() > 100*simtime.Millisecond {
		t.Fatalf("debugging took %v", d.Total())
	}
	if d.Clock.PhaseTotal("pointer-retrieval") == 0 || d.Clock.PhaseTotal("diagnosis") == 0 {
		t.Fatalf("missing phases: %+v", d.Clock.Phases())
	}
	if d.HostsContacted == 0 || d.HostsContacted > 4 {
		t.Fatalf("HostsContacted = %d", d.HostsContacted)
	}
}

func TestDiagnoseMicroburst(t *testing.T) {
	s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 4, Microburst: true})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(110 * simtime.Millisecond)
	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Skipf("FIFO burst did not trip the 50%% trigger in this configuration")
	}
	d := run(t, tb.Analyzer, analyzer.ContentionQuery{Alert: alert})
	if d.Kind != analyzer.KindMicroburst {
		t.Fatalf("kind = %v (%s)", d.Kind, d.Conclusion)
	}
}

// --- §5.2 Too many red lights ---

func TestDiagnoseRedLights(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(30 * simtime.Millisecond)

	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Fatalf("victim never triggered")
	}
	d := run(t, tb.Analyzer, analyzer.ContentionQuery{Alert: alert})
	if d.Kind != analyzer.KindRedLights {
		t.Fatalf("kind = %v (%s)", d.Kind, d.Conclusion)
	}
	// B→D must be blamed at S1 and C→E at S2: the spatial correlation.
	s1, s2 := tb.Switch("S1").NodeID(), tb.Switch("S2").NodeID()
	type blame struct {
		flow netsim.FlowKey
		sw   netsim.NodeID
	}
	blamed := map[blame]bool{}
	for _, c := range d.Culprits {
		blamed[blame{c.Flow, c.Switch}] = true
	}
	if !blamed[blame{s.FlowBD, s1}] || !blamed[blame{s.FlowCE, s2}] {
		t.Fatalf("spatial correlation missing (want B-D at S1, C-E at S2): %v", d.Culprits)
	}
	// B-D must NOT be blamed at S2 (no shared egress there).
	if blamed[blame{s.FlowBD, s2}] {
		t.Fatalf("B-D wrongly blamed at S2")
	}
	// The paper's budget: ~30 ms end to end.
	if d.Total() > 60*simtime.Millisecond {
		t.Fatalf("red-lights diagnosis took %v", d.Total())
	}
}

// TestTiedCulpritsKeepPathOrder pins the order of culprits that tie on
// bytes and flow: one high-priority flow that shares the victim's egress at
// S1 and S2 over the same epochs is blamed at both with equal bytes, and
// sortCulprits, being stable, keeps them in the alert's path order. Sixteen
// diagnoses of the one alert give any order that leaks into the sort's
// input (map order, a shuffle) its chances to show.
func TestTiedCulpritsKeepPathOrder(t *testing.T) {
	tb, err := scenario.NewTestbed(func(net *netsim.Network, tc topo.Config) *topo.Topology {
		return topo.Chain(net, []int{2, 2, 2}, tc)
	}, scenario.Options{Queue: netsim.QueuePriority})
	if err != nil {
		t.Fatal(err)
	}
	a, b := tb.Host("h1-1"), tb.Host("h1-2")
	e, f := tb.Host("h3-1"), tb.Host("h3-2")
	victim := netsim.FlowKey{Src: a.IP(), Dst: f.IP(), SrcPort: 10000, DstPort: 5001, Proto: netsim.ProtoTCP}
	burst := netsim.FlowKey{Src: b.IP(), Dst: e.IP(), SrcPort: 20001, DstPort: 7001, Proto: netsim.ProtoUDP}
	transport.StartTCP(tb.Net, a, f, transport.TCPConfig{
		Flow: victim, Priority: scenario.PrioLow, Duration: 10 * simtime.Millisecond})
	transport.StartUDP(tb.Net, b, transport.UDPConfig{
		Flow: burst, Priority: scenario.PrioHigh, RateBps: netsim.Rate1G,
		Start: 5 * simtime.Millisecond, Duration: 400 * simtime.Microsecond})
	tb.Run(30 * simtime.Millisecond)
	alert, ok := tb.AlertFor(victim)
	if !ok {
		t.Fatalf("victim never triggered")
	}
	s1, s2 := tb.Switch("S1").NodeID(), tb.Switch("S2").NodeID()
	for i := 0; i < 16; i++ {
		d := run(t, tb.Analyzer, analyzer.ContentionQuery{Alert: alert})
		var blamed []analyzer.Culprit
		for _, c := range d.Culprits {
			if c.Flow == burst {
				blamed = append(blamed, c)
			}
		}
		if len(blamed) != 2 || blamed[0].Bytes != blamed[1].Bytes {
			t.Fatalf("want the burst blamed twice with tied bytes, got %v", d.Culprits)
		}
		if blamed[0].Switch != s1 || blamed[1].Switch != s2 {
			t.Fatalf("diagnosis %d: the burst is blamed at %d then %d, want S1 (%d) then S2 (%d)",
				i, blamed[0].Switch, blamed[1].Switch, s1, s2)
		}
	}
}

// --- §5.3 Traffic cascades ---

func TestDiagnoseCascade(t *testing.T) {
	s, err := scenario.NewCascades(true, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(60 * simtime.Millisecond)

	alert, ok := tb.AlertFor(s.FlowCE)
	if !ok {
		t.Fatalf("C-E never triggered")
	}
	d := run(t, tb.Analyzer, analyzer.CascadeQuery{Alert: alert})
	if d.Kind != analyzer.KindCascade {
		t.Fatalf("kind = %v (%s)", d.Kind, d.Conclusion)
	}
	if len(d.Cascade) != 3 {
		t.Fatalf("cascade chain = %v", d.Cascade)
	}
	if d.Cascade[0] != s.FlowCE || d.Cascade[1] != s.FlowAF || d.Cascade[2] != s.FlowBD {
		t.Fatalf("chain order wrong: %v", d.Cascade)
	}
	// The paper's budget: ~50 ms for the two-round diagnosis.
	if d.Total() > 100*simtime.Millisecond {
		t.Fatalf("cascade diagnosis took %v", d.Total())
	}
}

func TestNoCascadeBaseline(t *testing.T) {
	s, err := scenario.NewCascades(false, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(60 * simtime.Millisecond)
	// Without the S1 contention the C-E flow should not suffer a drop, or
	// at worst produce an inconclusive diagnosis with no cascade chain.
	if alert, ok := tb.AlertFor(s.FlowCE); ok {
		d := run(t, tb.Analyzer, analyzer.CascadeQuery{Alert: alert})
		if d.Kind == analyzer.KindCascade {
			t.Fatalf("cascade diagnosed in the no-cascade baseline: %v", d.Cascade)
		}
	}
}

// --- §5.4 Load imbalance ---

func TestDiagnoseLoadImbalance(t *testing.T) {
	s, err := scenario.NewLoadImbalance(8, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(200 * simtime.Millisecond)

	// Query the most recent second of epochs.
	nowEpoch := tb.SwitchAgents[s.Suspect.NodeID()].LocalEpochAt(tb.Net.Now())
	window := simtime.EpochRange{Lo: nowEpoch - 99, Hi: nowEpoch}
	rep := run(t, tb.Analyzer, analyzer.ImbalanceQuery{Switch: s.Suspect.NodeID(), Window: window, At: tb.Net.Now()})
	if !rep.Separated {
		t.Fatalf("separation not detected: %s (links=%v)", rep.Conclusion, rep.Links)
	}
	if len(rep.Links) != 2 {
		t.Fatalf("links = %d", len(rep.Links))
	}
	if rep.Boundary < 256<<10 || rep.Boundary > 4<<20 {
		t.Fatalf("boundary = %d, want near 1MB", rep.Boundary)
	}
	if rep.HostsContacted != 8 {
		t.Fatalf("HostsContacted = %d, want 8", rep.HostsContacted)
	}
}

// --- Fig 12: top-k, SwitchPointer vs PathDump ---

func TestTopKModes(t *testing.T) {
	s, err := scenario.NewTopKWorkload(4, 12, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(50 * simtime.Millisecond)

	window := simtime.EpochRange{Lo: 0, Hi: 10}
	q := analyzer.TopKQuery{Switch: s.Queried.NodeID(), K: 100, Window: window, Mode: analyzer.ModeSwitchPointer, At: tb.Net.Now()}
	sp := run(t, tb.Analyzer, q)
	q.Mode = analyzer.ModePathDump
	pd := run(t, tb.Analyzer, q)

	// SwitchPointer contacts only hosts with relevant telemetry; PathDump
	// contacts everyone.
	if sp.HostsContacted > 6 {
		t.Fatalf("SwitchPointer contacted %d hosts", sp.HostsContacted)
	}
	if pd.HostsContacted != 14 { // 2 left + 12 right
		t.Fatalf("PathDump contacted %d hosts, want all 14", pd.HostsContacted)
	}
	if sp.Clock.Total() >= pd.Clock.Total() {
		t.Fatalf("SwitchPointer (%v) not faster than PathDump (%v)", sp.Clock.Total(), pd.Clock.Total())
	}
	// Same answer: the 4 relevant flows, sorted by bytes descending.
	if len(sp.Flows) != 4 || len(pd.Flows) != 4 {
		t.Fatalf("flows: sp=%d pd=%d", len(sp.Flows), len(pd.Flows))
	}
	for i := range sp.Flows {
		if sp.Flows[i].Flow != pd.Flows[i].Flow {
			t.Fatalf("mode answers differ at %d", i)
		}
		if i > 0 && sp.Flows[i].Bytes > sp.Flows[i-1].Bytes {
			t.Fatalf("not sorted")
		}
	}
}

// --- Pruning ablation ---

func TestPruningReducesContacts(t *testing.T) {
	s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Testbed
	tb.Run(110 * simtime.Millisecond)
	alert, ok := tb.AlertFor(s.Victim)
	if !ok {
		t.Fatalf("no alert")
	}
	pruned := run(t, tb.Analyzer, analyzer.ContentionQuery{Alert: alert})
	tb.Analyzer.DisablePruning = true
	unpruned := run(t, tb.Analyzer, analyzer.ContentionQuery{Alert: alert})
	tb.Analyzer.DisablePruning = false
	if pruned.HostsContacted >= unpruned.HostsContacted {
		t.Fatalf("pruning did not reduce contacts: %d vs %d",
			pruned.HostsContacted, unpruned.HostsContacted)
	}
	if pruned.Kind != unpruned.Kind {
		t.Fatalf("pruning changed the diagnosis: %v vs %v", pruned.Kind, unpruned.Kind)
	}
}

func TestEmptyAlertInconclusive(t *testing.T) {
	s, err := scenario.NewTooMuchTraffic(scenario.TooMuchTrafficConfig{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := run(t, s.Testbed.Analyzer, analyzer.ContentionQuery{Alert: hostagent.Alert{}})
	if d.Kind != analyzer.KindInconclusive {
		t.Fatalf("kind = %v", d.Kind)
	}
}

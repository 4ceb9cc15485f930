package analyzer_test

import (
	"context"
	"testing"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
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
	if len(d.PerSwitch) != 1 {
		t.Fatalf("PerSwitch = %v (want contention at one switch)", d.PerSwitch)
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
	// Both B→D (at S1) and C→E (at S2) must be identified.
	found := map[netsim.FlowKey]bool{}
	for _, c := range d.Culprits {
		found[c.Flow] = true
	}
	if !found[s.FlowBD] || !found[s.FlowCE] {
		t.Fatalf("culprits %v missing B-D or C-E", d.Culprits)
	}
	s1, s2 := tb.Switch("S1"), tb.Switch("S2")
	if len(d.PerSwitch[s1.NodeID()]) == 0 || len(d.PerSwitch[s2.NodeID()]) == 0 {
		t.Fatalf("spatial correlation missing: %v", d.PerSwitch)
	}
	// B-D must NOT be blamed at S2 (no shared egress there).
	for _, c := range d.PerSwitch[s2.NodeID()] {
		if c.Flow == s.FlowBD {
			t.Fatalf("B-D wrongly blamed at S2")
		}
	}
	// The paper's budget: ~30 ms end to end.
	if d.Total() > 60*simtime.Millisecond {
		t.Fatalf("red-lights diagnosis took %v", d.Total())
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

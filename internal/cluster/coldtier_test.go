package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
)

// hostColdAnswers canonicalizes one agent's result payloads for all five
// host-level query kinds, EXCLUDING the cold cost counters — compaction
// changes how many segments a query decodes, never what it returns.
func hostColdAnswers(t *testing.T, ag *hostagent.Agent, switches []netsim.NodeID, flows []netsim.FlowKey) string {
	t.Helper()
	ctx := context.Background()
	out := map[string]any{}
	for _, sw := range switches {
		key := fmt.Sprintf("%d", sw)
		ans := ag.QueryHeaders(ctx, hostagent.HeadersQuery{Switch: sw, Epochs: simtime.EpochRange{Lo: 0, Hi: 1 << 30}})
		out["headers/"+key] = ans.Records
		out["topk/"+key] = ag.QueryTopK(ctx, sw, 100)
		out["flowsizes/"+key] = ag.QueryFlowSizes(ctx, sw)
	}
	for _, f := range flows {
		rec, ok := ag.LookupRecord(ctx, f)
		prio, known := ag.QueryPriority(ctx, f)
		out["record/"+f.String()] = map[string]any{"rec": rec, "ok": ok}
		out["priority/"+f.String()] = map[string]any{"prio": prio, "known": known}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestCompactionEquivalenceAllKinds is the compaction acceptance gate:
// after staged evictions fragment every host's history across many cold
// segments, compacting the logs must leave every answer byte-identical —
// the full priority-contention diagnosis (culprits, verdict, hot-window
// virtual-time metrics) and all five host-level query kinds — while
// decoding fewer segments and charging no more cold-read-back time.
func TestCompactionEquivalenceAllKinds(t *testing.T) {
	src, err := BuildScenarioOpt("priority", 8, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Testbed.Close()
	q, err := src.Query()
	if err != nil {
		t.Fatal(err)
	}

	// Reference sets captured before any eviction.
	var switches []netsim.NodeID
	for _, s := range src.Testbed.Topo.Switches() {
		switches = append(switches, s.NodeID())
	}
	flowsOf := map[netsim.IPv4][]netsim.FlowKey{}
	for ip, ag := range src.Testbed.HostAgents {
		for _, r := range ag.Store.All() {
			flowsOf[ip] = append(flowsOf[ip], r.Flow)
		}
	}

	// Staged eviction: repeated sweeps at increasing times fragment each
	// host's records across many small epoch-overlapping segments — the
	// state a long-running daemon accumulates.
	alpha := src.Testbed.Opt.Alpha
	logs := map[netsim.IPv4]*statesync.SegmentLog{}
	for ip, ag := range src.Testbed.HostAgents {
		seglog, err := statesync.NewSegmentLog("")
		if err != nil {
			t.Fatal(err)
		}
		ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: alpha, Cold: seglog})
		for sweep := simtime.Time(simtime.Millisecond); sweep <= 60*simtime.Millisecond; sweep += simtime.Millisecond {
			if _, err := ag.Store.Maintain(sweep); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ag.Store.Maintain(1 << 40); err != nil {
			t.Fatal(err)
		}
		if ag.Store.Len() != 0 {
			t.Fatalf("host %v still holds %d resident records", ip, ag.Store.Len())
		}
		ag.SetColdReader(seglog)
		logs[ip] = seglog
	}

	before, err := src.Testbed.Analyzer.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if before.ColdSegments == 0 {
		t.Fatal("fragmented diagnosis decoded no cold segments")
	}
	hostBefore := map[netsim.IPv4]string{}
	segsBefore := 0
	for ip, ag := range src.Testbed.HostAgents {
		hostBefore[ip] = hostColdAnswers(t, ag, switches, flowsOf[ip])
		segsBefore += logs[ip].Len()
	}

	// Compact every host's log.
	runs := 0
	for _, l := range logs {
		st, err := l.Compact(context.Background(), statesync.CompactPolicy{MinRun: 2})
		if err != nil {
			t.Fatal(err)
		}
		runs += st.Runs
	}
	if runs == 0 {
		t.Fatal("compaction found nothing to merge — the staged eviction produced no runs")
	}
	segsAfter := 0
	for ip := range logs {
		segsAfter += logs[ip].Len()
	}
	if segsAfter >= segsBefore {
		t.Fatalf("compaction left %d segments, had %d", segsAfter, segsBefore)
	}

	// Gate 1: all five host-level query kinds byte-identical per host.
	for ip, ag := range src.Testbed.HostAgents {
		if got := hostColdAnswers(t, ag, switches, flowsOf[ip]); got != hostBefore[ip] {
			t.Fatalf("host %v answers diverged after compaction\n--- before ---\n%s\n--- after ---\n%s",
				ip, hostBefore[ip], got)
		}
	}

	// Gate 2: the full diagnosis — same culprits and verdict, fewer
	// segments decoded, cold-read-back cost no higher, every hot-window
	// virtual-time phase byte-identical.
	after, err := src.Testbed.Analyzer.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := json.Marshal(WireFromReport(before).Culprits)
	ac, _ := json.Marshal(WireFromReport(after).Culprits)
	if string(bc) != string(ac) {
		t.Fatalf("culprits diverged after compaction\n--- before ---\n%s\n--- after ---\n%s", bc, ac)
	}
	if before.Kind != after.Kind || before.Conclusion != after.Conclusion {
		t.Fatalf("verdict diverged: %v/%q vs %v/%q", before.Kind, before.Conclusion, after.Kind, after.Conclusion)
	}
	if after.ColdSegments >= before.ColdSegments {
		t.Fatalf("diagnosis decoded %d cold segments after compaction, had %d", after.ColdSegments, before.ColdSegments)
	}
	if ba, aa := before.Clock.PhaseTotal("cold-read-back"), after.Clock.PhaseTotal("cold-read-back"); aa > ba {
		t.Fatalf("cold-read-back cost rose from %v to %v", ba, aa)
	}
	for _, ph := range before.Clock.Phases() {
		if ph.Name == "cold-read-back" {
			continue
		}
		if got := after.Clock.PhaseTotal(ph.Name); got != ph.Duration {
			t.Fatalf("hot-window phase %q changed: %v → %v", ph.Name, ph.Duration, got)
		}
	}
}

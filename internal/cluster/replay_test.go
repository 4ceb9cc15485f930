//go:build !race

package cluster

import (
	"context"
	"net/http/httptest"
	"testing"

	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/trace"
)

// TestReplayAllocBudget is the in-tree gate on the write path's allocation
// debt: building the paper's Fig 8 point (load imbalance, n = 96) and
// playing it to the horizon — what the benchmark's sim-replay workload,
// every spd start-up and every figure regeneration does — stays within
// 12 000 allocations. PR 20 brought it from ≈ 66 300 to ≈ 9 500 (one event
// queue that grows by doubling, store shards built on first write); an
// allocation per packet, per event or per idle host shows up here long
// before it shows up as time. Not built under -race: sync.Pool then drops a
// quarter of its Puts, so netsim's pooled packets are re-allocated at random.
func TestReplayAllocBudget(t *testing.T) {
	const budget = 12_000
	events := uint64(0)
	allocs := testing.AllocsPerRun(2, func() {
		s, err := BuildScenarioOpt("loadimbalance", 0, 96, scenario.Options{ClockSeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		events = s.Testbed.Net.Engine.Processed()
		s.Testbed.Close()
	})
	if events == 0 {
		t.Fatal("the replay ran no events")
	}
	if allocs > budget {
		t.Fatalf("loadimbalance n=96 build+run: %v allocs, want <= %d", allocs, budget)
	}
	t.Logf("loadimbalance n=96 build+run: %v allocs (budget %d), %d events", allocs, budget, events)
}

// TestRoundTripAllocBudget is the in-tree gate on the service plane's
// per-request cost: one traced /topk round trip — rpc.HTTPClient.Call on a
// pooled client, net/http both ways, rpc.Endpoint, the child span — stays
// within 116 allocations (118 for the hand-written handler and client it
// replaced; Call decoding from a pooled buffer instead of a json.Decoder took
// two more). diag-fanout makes 96 of these per diagnosis, so one allocation
// here is 96 there: an encoder built inside Endpoint's generic closure (it
// escapes) or a third closure per route shows up as 117. The
// queried switch holds no flows, so the answer is empty and the count is the
// exchange's own.
func TestRoundTripAllocBudget(t *testing.T) {
	const budget = 116
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	defer s.Testbed.Close()
	ip := s.HostIPs()[0]
	fr := trace.NewFlightRecorder("host", 0)
	srv := httptest.NewServer(rpc.NewHostHandler(s.Testbed.HostAgents[ip], ip.String(), fr))
	defer srv.Close()
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()

	ctx := trace.ContextWithRemote(context.Background(), trace.RemoteContext{TraceID: "t", Parent: "0.1", At: 5})
	const noSuchSwitch = 1 << 20
	allocs := testing.AllocsPerRun(200, func() {
		if flows, err := client.QueryTopK(ctx, srv.URL, noSuchSwitch, 100); err != nil || len(flows) != 0 {
			t.Fatalf("topk = %v, %v", flows, err)
		}
	})
	if tr, ok := fr.Get("t"); !ok || len(tr.Spans) != 1 || tr.Spans[0].ID != "0.1.host:"+ip.String()+":topk" {
		t.Fatalf("traced round trip left %+v, want the one topk child span", tr.Spans)
	}
	if allocs > budget {
		t.Fatalf("traced /topk round trip: %v allocs, want <= %d", allocs, budget)
	}
	t.Logf("traced /topk round trip: %v allocs (budget %d)", allocs, budget)
}

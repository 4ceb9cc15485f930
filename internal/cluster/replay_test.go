//go:build !race

package cluster

import (
	"testing"

	"switchpointer/internal/scenario"
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

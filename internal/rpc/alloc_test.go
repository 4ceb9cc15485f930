//go:build !race

package rpc

import (
	"context"
	"testing"

	"switchpointer/internal/netsim"
)

// TestHostsQueriedAllocFree: without pooling the clock keeps no per-server
// state, so charging a 96-server round allocates nothing.
func TestHostsQueriedAllocFree(t *testing.T) {
	servers := make([]netsim.IPv4, 96)
	recs := make([]int, 96)
	for i := range servers {
		servers[i] = netsim.IP(10, 0, 0, byte(i+1))
		recs[i] = i
	}
	c := NewClock(DefaultCostModel(), 0)
	allocs := testing.AllocsPerRun(100, func() {
		c.phases = c.phases[:0]
		c.HostsQueried("diagnosis", servers, recs)
	})
	if allocs != 0 {
		t.Fatalf("HostsQueried over 96 servers: %.0f allocations, want 0", allocs)
	}
}

// TestFanOutAllocBudget pins one round with workers > 1 at its measured
// count: the shared round struct, the derived context (2) and, per helper,
// the goroutine's start closure and a fresh goroutine descriptor.
// AllocsPerRun pins GOMAXPROCS to 1 and the caller claims every index before
// yielding, so no helper has exited to leave a descriptor for reuse.
func TestFanOutAllocBudget(t *testing.T) {
	ctx := context.Background()
	var sink [8]int
	fn := func(_ context.Context, i int) { sink[i]++ }
	allocs := testing.AllocsPerRun(200, func() {
		FanOut(ctx, 4, len(sink), fn)
	})
	if allocs > 9 {
		t.Fatalf("FanOut n=8 workers=4: %.2f allocations per round, want ≤ 9", allocs)
	}
}

//go:build !race

package rpc

import (
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

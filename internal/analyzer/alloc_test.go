//go:build !race

package analyzer

import (
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/topo"
)

// TestSharesEgressAllocFree: the contention round asks "do these two flows
// share an egress queue?" once per returned record; the answer reads the
// routing table and allocates nothing.
func TestSharesEgressAllocFree(t *testing.T) {
	tp := topo.FatTree(netsim.New(), 4, topo.Config{})
	a := &Analyzer{Topo: tp}
	hosts := tp.Hosts()
	shared, apart := 0, 0
	allocs := testing.AllocsPerRun(20, func() {
		shared, apart = 0, 0
		for _, sw := range tp.Switches() {
			for _, h := range hosts {
				if a.sharesEgress(sw.NodeID(), hosts[0].IP(), h.IP()) {
					shared++
				} else {
					apart++
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("sharesEgress: %.0f allocations per sweep, want 0", allocs)
	}
	if shared == 0 || apart == 0 {
		t.Fatalf("a sweep found %d shared and %d separate egress pairs; want both", shared, apart)
	}
}

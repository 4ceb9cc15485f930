//go:build !race

// Allocation pins for the by-switch host queries. Not under the race
// detector, which adds allocations.

package hostagent_test

import (
	"context"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// TestByteQueryAllocs pins one QueryTopK and one QueryFlowSizes over a
// one-record answer — the diag-fanout shape, one flow per receiver. Each
// allocates only its answer slice; the budget is the measured 1 + 10 %.
func TestByteQueryAllocs(t *testing.T) {
	const budget = 1.1
	st := store.New()
	r := flowrec.New(netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netsim.ProtoUDP})
	r.Path = []netsim.NodeID{10, 11}
	r.Epochs = []simtime.EpochRange{{Lo: 1, Hi: 2}, {Lo: 1, Hi: 2}}
	r.Bytes = 500
	st.Put(r)
	ag := &hostagent.Agent{Store: st}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(100, func() { _ = ag.QueryTopK(ctx, 11, 100) }); allocs > budget {
		t.Errorf("QueryTopK over one record: %v allocs, want <= %v", allocs, budget)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = ag.QueryFlowSizes(ctx, 11) }); allocs > budget {
		t.Errorf("QueryFlowSizes over one record: %v allocs, want <= %v", allocs, budget)
	}
}

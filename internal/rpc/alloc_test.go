//go:build !race

package rpc

import (
	"context"
	"encoding/json"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
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

// TestHeadersBatchDecodeAllocs pins the client's read of a host's
// /headers-batch body at 3 allocations, whatever the answers and records it
// holds: decodeWire's answer slice and the one slab every segment decodes
// into, and the answers handed on. Read through json.Unmarshal, the same
// bodies cost 10 allocations for one answer and 20 for eight.
func TestHeadersBatchDecodeAllocs(t *testing.T) {
	const want = 3
	for _, c := range []struct{ answers, records int }{{1, 0}, {1, 1}, {1, 1024}, {8, 128}} {
		answers := make([]hostagent.HeadersAnswer, c.answers)
		for i := range answers {
			recs := make([]*flowrec.Record, c.records)
			for j := range recs {
				recs[j] = wireRecord(netsim.IPv4(1+j), 2, 10)
			}
			seg, err := flowrec.AppendSegment(nil, recs)
			if err != nil {
				t.Fatal(err)
			}
			answers[i] = hostagent.HeadersAnswer{Segment: seg, ColdSegments: 1 + i}
		}
		body, err := json.Marshal(newHeadersBatchResponse(answers))
		if err != nil {
			t.Fatal(err)
		}
		var br HeadersBatchResponse
		allocs := testing.AllocsPerRun(100, func() {
			if err := br.decodeWire(body); err != nil {
				t.Fatal(err)
			}
			if got, err := br.answers(); err != nil || len(got) != c.answers {
				t.Fatalf("%d answers, %v; want %d", len(got), err, c.answers)
			}
		})
		if allocs != want {
			t.Errorf("reading %d answers of %d records: %v allocations, want %d", c.answers, c.records, allocs, want)
		}
	}
}

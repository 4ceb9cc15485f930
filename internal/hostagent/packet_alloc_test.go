//go:build !race

// The packet path's allocation pin. Not under the race detector: sync.Pool
// then drops Puts, and pooled packets re-allocate.

package hostagent

import (
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// TestOnPacketAllocFree: once a flow is known, one more of its packets,
// sent across the chain and handed to the receiving agent by Host.deliver,
// allocates nothing — the flow-table hit, meter, decode and record absorb
// included. The trigger scan is armed and ticks in between.
func TestOnPacketAllocFree(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 5, DstPort: 6, Proto: netsim.ProtoUDP}
	ag := agents[dst.IP()]
	ag.StartTriggers()
	now := simtime.Time(0)
	send := func() {
		p := netsim.AllocPacket()
		p.ID = net.AllocPacketID()
		p.Flow, p.Size = flow, 1500
		src.Send(p)
		now += 20 * simtime.Microsecond // 600 Mbit/s: no queue drops
		net.RunUntil(now)
	}
	for range 10 {
		send()
	}
	before := ag.Received
	// 1 011 packets 20 µs apart span three 10 ms epochs and stay in the
	// meter's first 64 buckets.
	allocs := testing.AllocsPerRun(1000, send)
	if ag.Received-before < 1000 || ag.DecodeErrors != 0 {
		t.Fatalf("received %d packets (%d decode errors), want >= 1000", ag.Received-before, ag.DecodeErrors)
	}
	if allocs != 0 {
		t.Fatalf("a steady-state packet of a known flow: %v allocs, want 0", allocs)
	}
	if rec, ok := ag.Store.Lookup(flow); !ok || rec.Pkts != ag.Received {
		t.Fatalf("record = %v, %v; want every one of %d packets absorbed", rec, ok, ag.Received)
	}
}

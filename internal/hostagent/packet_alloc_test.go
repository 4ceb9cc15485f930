//go:build !race

// The packet path's allocation pin. Not under the race detector: sync.Pool
// then drops Puts, and pooled packets re-allocate.

package hostagent

import (
	"runtime"
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// TestOnPacketAllocFree: once a flow is known, one more of its packets,
// sent across the chain and handed to the receiving agent by Host.deliver,
// allocates nothing — the flow-table hit, rate window, decode and record
// absorb included. The trigger scan is armed and ticks in between.
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
	// 1 011 packets 20 µs apart span three 10 ms epochs. AllocsPerRun
	// divides the total by the run count in integers, so this pins the
	// steady packet, not growth a handful of times in a thousand packets:
	// TestRateWindowAllocFree pins the window over many buckets, and
	// cluster's TestReplayAllocBudget the bytes of a whole replay.
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

// TestRateWindowAllocFree: a known flow's state takes a packet in each of
// 100 000 buckets, each followed by the trigger's two reads, and allocates
// nothing in total. A per-flow series of every bucket since time 0 regrows
// over such a run, which TestOnPacketAllocFree's per-packet average cannot
// see; this counts every allocation.
func TestRateWindowAllocFree(t *testing.T) {
	const interval = simtime.Millisecond
	flow := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 5, DstPort: 6, Proto: netsim.ProtoUDP}
	var ft flowTable
	ft.get(flow).rate.record(1500, 0)
	ft.get(flow).rate.record(1500, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	want := 1500 * 8 / float64(interval)
	wrong := 0
	for i := 2; i < 100_002; i++ {
		fs := ft.get(flow)
		fs.rate.record(1500, i)
		if fs.rate.gbps(i-2, interval) != want || fs.rate.gbps(i-1, interval) != want {
			wrong++
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("100 000 buckets of a known flow: %d allocations, want 0", n)
	}
	if wrong != 0 {
		t.Fatalf("%d ticks read a bucket other than %v Gbit/s", wrong, want)
	}
}

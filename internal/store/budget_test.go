//go:build !race

// The store's count budgets: what a resident record costs the index, and
// what the write and scan hot paths allocate. Not under the race detector,
// which changes both (the convention TestReplayAllocBudget set).

package store

import (
	"runtime"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

const budgetRecords = 20_000

// budgetRecord is record i of a diag-heavy-shaped resident set: five hops,
// one of 24 routes, every route ending in switches 100 and 101.
func budgetRecord(i int) *flowrec.Record {
	r := flowrec.New(netsim.FlowKey{Src: netsim.IPv4(1 + i%24), Dst: 99,
		SrcPort: uint16(i), DstPort: uint16(9000 + i>>16), Proto: netsim.ProtoUDP})
	r.Path = []netsim.NodeID{netsim.NodeID(1 + i%6), netsim.NodeID(10 + i%4), netsim.NodeID(20 + i%24/6), 100, 101}
	for range r.Path {
		r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: simtime.Epoch(1000 + i), Hi: simtime.Epoch(1001 + i)})
	}
	r.Pkts, r.Bytes, r.LastSeen = 1, 1500, simtime.Time(i)
	return r
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerRecord pins the index's share of a resident record:
// the records exist before the first reading, so neither reading counts
// their own bytes. 80 B is the shard map entry (flow key + slot) at the
// map's load factor; the three-index store took 316 B. With two switches
// every record traverses queried — per-shard memos with inline ranges, and
// BySwitch's merged cache — it is 160 B against 349 B.
func TestResidentBytesPerRecord(t *testing.T) {
	recs := make([]*flowrec.Record, budgetRecords)
	for i := range recs {
		recs[i] = budgetRecord(i)
	}
	st := New()
	before := heapAlloc()
	for _, r := range recs {
		st.Put(r)
	}
	indexed := heapAlloc()
	for _, sw := range []netsim.NodeID{100, 101} {
		if n := len(st.BySwitch(sw)); n != budgetRecords {
			t.Fatalf("BySwitch(%d) = %d records", sw, n)
		}
	}
	queried := heapAlloc()
	perIndex := float64(indexed-before) / budgetRecords
	perQueried := float64(queried-before) / budgetRecords
	t.Logf("resident bytes per record: %.1f indexed, %.1f with two switches queried", perIndex, perQueried)
	if perIndex > 80 {
		t.Errorf("index: %.1f B per record, want <= 80", perIndex)
	}
	if perQueried > 160 {
		t.Errorf("index + two queried switches: %.1f B per record, want <= 160", perQueried)
	}
	runtime.KeepAlive(recs)
	runtime.KeepAlive(st)
}

// TestAbsorbReleaseAllocs: the packet path allocates nothing — neither the
// steady packet Absorb vouches for, nor one that widens a range while a memo
// lists the record (refreshed in place, not rebuilt).
func TestAbsorbReleaseAllocs(t *testing.T) {
	st := New()
	flow := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP}
	path := []netsim.NodeID{10, 11}
	pkt := &netsim.Packet{Flow: flow, Size: 100}
	hi := simtime.Epoch(6)
	absorb := func() {
		dec := header.Decoded{Path: path, Epochs: []simtime.EpochRange{{Lo: 5, Hi: hi}, {Lo: 5, Hi: hi}}, TagIdx: 0}
		rec := st.Acquire(flow)
		rec.Absorb(pkt, dec, 0)
		st.Release(rec)
	}
	absorb()
	absorb() // EpochBytes has its one epoch; from here the packets are steady
	if allocs := testing.AllocsPerRun(1000, absorb); allocs != 0 {
		t.Errorf("steady Acquire/Absorb/Release: %v allocs, want 0", allocs)
	}
	if len(st.BySwitch(10)) != 1 {
		t.Fatal("no memo to refresh")
	}
	gens := st.Generations()
	if allocs := testing.AllocsPerRun(1000, func() { hi++; absorb() }); allocs != 0 {
		t.Errorf("widening Acquire/Absorb/Release with a memo present: %v allocs, want 0", allocs)
	}
	var got simtime.EpochRange
	st.QueryWindow(10, simtime.EpochRange{Lo: hi, Hi: hi}, func(r *flowrec.Record) { got, _ = r.EpochsAt(10) })
	if got.Hi != hi {
		t.Errorf("the memo did not follow the widening: scan at epoch %d found %v", hi, got)
	}
	if st.Generations() != gens {
		t.Errorf("widening invalidated: generations %d -> %d", gens, st.Generations())
	}
}

// TestWindowScanEmptyAnswerAllocs: a scan whose window no record overlaps
// reads the memos and allocates nothing.
func TestWindowScanEmptyAnswerAllocs(t *testing.T) {
	st := New()
	for i := 0; i < budgetRecords; i++ {
		st.Put(budgetRecord(i))
	}
	visited := 0
	count := func(*flowrec.Record) { visited++ }
	st.QueryWindow(100, EveryEpoch, count) // builds the memos
	if visited != budgetRecords {
		t.Fatalf("full-window scan visited %d of %d", visited, budgetRecords)
	}
	visited = 0
	if allocs := testing.AllocsPerRun(100, func() { st.QueryWindow(100, simtime.EpochRange{Lo: 1, Hi: 2}, count) }); allocs != 0 {
		t.Errorf("empty-answer scan over %d records: %v allocs, want 0", budgetRecords, allocs)
	}
	if visited != 0 {
		t.Fatalf("empty window matched %d records", visited)
	}
}

// BenchmarkAcquireAbsorbRelease is the packet write path as a host runs it:
// 64 flows round-robin, every flow's epochs widening once per 1024 of its
// packets, no memo built (sim-replay never queries while it replays).
func BenchmarkAcquireAbsorbRelease(b *testing.B) {
	st := New()
	path := []netsim.NodeID{10, 11, 12, 13, 14}
	var flows [64]netsim.FlowKey
	for i := range flows {
		flows[i] = netsim.FlowKey{Src: netsim.IPv4(i + 1), Dst: 99, SrcPort: uint16(i), DstPort: 2, Proto: netsim.ProtoTCP}
	}
	pkt := &netsim.Packet{Size: 1500}
	epochs := make([]simtime.EpochRange, len(path))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := simtime.Epoch(i >> 16) // 64 flows × 1024 packets
		for j := range epochs {
			epochs[j] = simtime.EpochRange{Lo: e, Hi: e}
		}
		pkt.Flow = flows[i&63]
		rec := st.Acquire(pkt.Flow)
		rec.Absorb(pkt, header.Decoded{Path: path, Epochs: epochs, TagIdx: 0}, simtime.Time(i))
		st.Release(rec)
	}
}

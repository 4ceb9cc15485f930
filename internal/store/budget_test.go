//go:build !race

// The store's count budgets: what a resident record costs, and
// what the write and scan hot paths allocate. Not under the race detector,
// which changes both (the convention TestReplayAllocBudget set).

package store

import (
	"bytes"
	"runtime"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerRecord pins what a record Put into the store costs
// resident, the record included: the first reading is taken before the
// records exist, and Put keeps none of them. 150 B is its encoding (≈ 57 B
// for budgetRecord) in the shard arena, its slot and its index map entry at
// the map's load factor; the same record kept as a *flowrec.Record cost
// ≈ 400 B (334 B of record with an empty map, and 67 B of index). Querying
// two switches every record traverses adds their per-shard memos,
// 2 × (4 B slot number + 16 B inline range): at most 50 B more.
func TestResidentBytesPerRecord(t *testing.T) {
	st := New()
	before := heapAlloc()
	for i := range budgetRecords {
		st.Put(budgetRecord(i))
	}
	resident := heapAlloc()
	visited := 0
	for _, sw := range []netsim.NodeID{100, 101} {
		st.QueryWindow(sw, EveryEpoch, func(*flowrec.Record) { visited++ })
	}
	if visited != 2*budgetRecords {
		t.Fatalf("two full-window scans visited %d records, want %d", visited, 2*budgetRecords)
	}
	queried := heapAlloc()
	perRecord := float64(resident-before) / budgetRecords
	perMemos := float64(queried-resident) / budgetRecords
	t.Logf("resident bytes per record: %.1f, and %.1f more with two switches queried", perRecord, perMemos)
	if perRecord > 150 {
		t.Errorf("resident: %.1f B per record, want <= 150", perRecord)
	}
	if perMemos > 50 {
		t.Errorf("two queried switches: %.1f B per record, want <= 50", perMemos)
	}
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
	before := st.Generations()
	if allocs := testing.AllocsPerRun(1000, func() { hi++; absorb() }); allocs != 0 {
		t.Errorf("widening Acquire/Absorb/Release with a memo present: %v allocs, want 0", allocs)
	}
	var got simtime.EpochRange
	st.QueryWindow(10, simtime.EpochRange{Lo: hi, Hi: hi}, func(r *flowrec.Record) { got, _ = r.EpochsAt(10) })
	if got.Hi != hi {
		t.Errorf("the memo did not follow the widening: scan at epoch %d found %v", hi, got)
	}
	if st.Generations() != before {
		t.Errorf("widening invalidated: generations %d -> %d", before, st.Generations())
	}
}

// TestAcquireDecodesPutRecordOnce: a Put record is stored encoded. Its first
// Acquire decodes it into a live record — the slot's bytes go dead and, half
// the arena, are compacted away; the absorb path owns the record from then
// on — and nothing a query reads
// changes: every read form gives the same bytes before and after, and no
// memo is invalidated. Later Acquires find the live record, and steady
// Absorbs into it allocate nothing.
func TestAcquireDecodesPutRecordOnce(t *testing.T) {
	st := New()
	rec := budgetRecord(7)
	rec.AddEpochBytes(rec.Epochs[0].Lo, rec.Bytes)
	st.Put(rec)
	answers := func() []byte {
		out, _ := st.AppendEncoded(nil, rec.Flow)
		st.QueryWindowEncoded(100, EveryEpoch, nil, func(enc []byte) { out = append(out, enc...) })
		st.QueryWindow(101, rec.Epochs[4], func(r *flowrec.Record) { out = flowrec.AppendRecord(out, r) })
		st.View(rec.Flow, func(r *flowrec.Record) { out = flowrec.AppendRecord(out, r) })
		for _, r := range st.BySwitch(10 + 7%4) {
			out = flowrec.AppendRecord(out, r)
		}
		return out
	}
	before, generations := answers(), st.Generations()
	t0 := st.shardOf(&rec.Flow).tab.Load()
	if t0.arena.dead != 0 || t0.slots[t0.find(rec.Flow)].rec != nil {
		t.Fatal("a Put record is not stored encoded")
	}

	live := st.Acquire(rec.Flow)
	st.Release(live)
	if t0.arena.used != 0 || t0.slots[t0.find(rec.Flow)].rec != live {
		t.Fatal("Acquire left the record encoded, or its dead bytes uncompacted")
	}
	if after := answers(); !bytes.Equal(after, before) {
		t.Fatalf("answers changed when the record went live:\n%x\n%x", after, before)
	}
	if st.Generations() != generations {
		t.Fatalf("going live invalidated %d memos", st.Generations()-generations)
	}

	dec := header.Decoded{Path: rec.Path, Epochs: rec.Epochs, TagIdx: 0}
	pkt := &netsim.Packet{Flow: rec.Flow, Size: 1500}
	absorb := func() {
		r := st.Acquire(rec.Flow)
		if r != live {
			t.Fatal("Acquire decoded the record again")
		}
		r.Absorb(pkt, dec, rec.LastSeen)
		st.Release(r)
	}
	if allocs := testing.AllocsPerRun(1000, absorb); allocs != 0 {
		t.Errorf("steady Acquire/Absorb/Release of a woken record: %v allocs, want 0", allocs)
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

// TestEgressAllocs: records leave the store as copies of their bytes. A
// snapshot of 4 096 Put records splices each shard's stored encodings into a
// reused segment, and a sweep that evicts every one of them writes one
// segment of those encodings; neither decodes a record into a fresh one (the
// decode-and-re-encode forms took ≈ 8 300 and ≈ 25 300 allocations).
func TestEgressAllocs(t *testing.T) {
	const n = 4096
	st := New()
	for i := range n {
		st.Put(budgetRecord(i))
	}
	records := 0
	snapshot := func() {
		records = 0
		err := st.SnapshotShards(func(seg []byte) error {
			k, err := flowrec.SegmentRecords(seg)
			records += k
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, snapshot)
	t.Logf("SnapshotShards over %d Put records: %v allocs", n, allocs)
	if allocs > 48 {
		t.Errorf("SnapshotShards over %d Put records: %v allocs, want <= 48", n, allocs)
	}
	if records != n {
		t.Fatalf("the snapshot holds %d of %d records", records, n)
	}

	// AllocsPerRun's warm-up call would evict everything: count one sweep.
	cold := &sinkLog{}
	st.SetRetention(Retention{HotEpochs: 1, Alpha: 1, Cold: cold})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	evicted, err := st.Maintain(n + 1)
	runtime.ReadMemStats(&after)
	if err != nil || evicted != n || len(cold.payloads) != 1 {
		t.Fatalf("Maintain evicted %d of %d into %d segments: %v", evicted, n, len(cold.payloads), err)
	}
	t.Logf("Maintain evicting %d Put records: %d allocs", n, after.Mallocs-before.Mallocs)
	if allocs := after.Mallocs - before.Mallocs; allocs > 1500 {
		t.Errorf("Maintain evicting %d Put records: %d allocs, want <= 1500", n, allocs)
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

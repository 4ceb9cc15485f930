package store

import (
	"bytes"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

func addRecord(st *RecordStore, src, dst netsim.IPv4, path []netsim.NodeID, bytes int) *flowrec.Record {
	flow := netsim.FlowKey{Src: src, Dst: dst, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP}
	epochs := make([]simtime.EpochRange, len(path))
	for i := range epochs {
		epochs[i] = simtime.EpochRange{Lo: 5, Hi: 6}
	}
	rec := st.Acquire(flow)
	rec.Absorb(&netsim.Packet{Flow: flow, Size: bytes},
		header.Decoded{Path: path, Epochs: epochs, TagIdx: 0}, 0)
	st.Release(rec)
	return rec
}

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

// TestEncodingsOutliveCompaction: encodings QueryWindowEncoded handed out
// stay valid and unchanged while Puts replace every record three times over
// — each round leaves half the arena dead and compacts it — and the store
// answers the newest versions.
func TestEncodingsOutliveCompaction(t *testing.T) {
	const n = 300
	st := New()
	for i := range n {
		st.Put(budgetRecord(i))
	}
	var held, copies [][]byte
	st.QueryWindowEncoded(100, EveryEpoch, nil, func(enc []byte) {
		held, copies = append(held, enc), append(copies, bytes.Clone(enc))
	})
	for round := 1; round <= 3; round++ {
		for i := range n {
			r := budgetRecord(i)
			r.Pkts += uint64(round)
			st.Put(r)
		}
	}
	if len(held) != n {
		t.Fatalf("held %d encodings, want %d", len(held), n)
	}
	for i := range held {
		if !bytes.Equal(held[i], copies[i]) {
			t.Fatalf("encoding %d changed under the store's writes", i)
		}
	}
	got := st.BySwitch(100)
	if len(got) != n || got[0].Pkts != 4 || got[n-1].Pkts != 4 {
		t.Fatalf("after three rounds of replacement: %d records, first with %d packets", len(got), got[0].Pkts)
	}
}

// TestGetCreatesOnce: Acquire creates a flow's record once; a second
// Acquire/Release of the same flow finds it.
func TestGetCreatesOnce(t *testing.T) {
	st := New()
	f := netsim.FlowKey{Src: 1, Dst: 2}
	a := st.Acquire(f)
	st.Release(a)
	b := st.Acquire(f)
	st.Release(b)
	if a != b || st.Len() != 1 {
		t.Fatalf("Acquire should create once")
	}
	if _, ok := st.Lookup(netsim.FlowKey{Src: 9}); ok {
		t.Fatalf("Lookup should not create")
	}
}

func TestBySwitchIndex(t *testing.T) {
	st := New()
	addRecord(st, 1, 2, []netsim.NodeID{10, 11}, 100)
	addRecord(st, 3, 4, []netsim.NodeID{11, 12}, 200)
	addRecord(st, 5, 6, []netsim.NodeID{13}, 300)
	if got := st.BySwitch(11); len(got) != 2 {
		t.Fatalf("BySwitch(11) = %d records", len(got))
	}
	if got := st.BySwitch(13); len(got) != 1 || got[0].Bytes != 300 {
		t.Fatalf("BySwitch(13) wrong")
	}
	if st.BySwitch(99) != nil {
		t.Fatalf("unknown switch should return nil")
	}
}

func TestBySwitchDeterministicOrder(t *testing.T) {
	st := New()
	addRecord(st, 9, 2, []netsim.NodeID{7}, 1)
	addRecord(st, 1, 2, []netsim.NodeID{7}, 2)
	addRecord(st, 5, 2, []netsim.NodeID{7}, 3)
	got := st.BySwitch(7)
	if len(got) != 3 || got[0].Flow.Src != 1 || got[1].Flow.Src != 5 || got[2].Flow.Src != 9 {
		t.Fatalf("order not deterministic: %v", got)
	}
}

// snapshot collects every record through SnapshotShards, in flow-key order.
func snapshot(t testing.TB, st *RecordStore) []*flowrec.Record {
	t.Helper()
	var all []*flowrec.Record
	if err := st.SnapshotShards(EveryEpoch, func(seg []byte) error {
		recs, _, err := flowrec.DecodeSegment(seg, nil)
		all = append(all, recs...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	flowrec.SortRecords(all)
	return all
}

func TestSnapshotShardsHoldsEveryRecord(t *testing.T) {
	st := New()
	addRecord(st, 1, 2, []netsim.NodeID{1}, 10)
	addRecord(st, 3, 4, []netsim.NodeID{2}, 20)
	if got := snapshot(t, st); len(got) != 2 || got[0].Bytes != 10 || got[1].Bytes != 20 {
		t.Fatalf("snapshot = %v", got)
	}
}

// TestFlushLoadRoundTrip is the bootstrap round trip: a store's snapshot
// segments, encoded and decoded, Put into a fresh store rebuild it.
func TestFlushLoadRoundTrip(t *testing.T) {
	st := New()
	addRecord(st, 1, 2, []netsim.NodeID{10, 11}, 100)
	addRecord(st, 3, 4, []netsim.NodeID{11}, 200)
	var buf bytes.Buffer
	if err := st.SnapshotShards(EveryEpoch, func(seg []byte) error { buf.Write(seg); return nil }); err != nil {
		t.Fatal(err)
	}
	st2 := New()
	for buf.Len() > 0 {
		recs, err := DecodeSegment(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			st2.Put(r)
		}
	}
	if st2.Len() != 2 {
		t.Fatalf("loaded %d records", st2.Len())
	}
	if got := st2.BySwitch(11); len(got) != 2 {
		t.Fatalf("index not rebuilt: %d", len(got))
	}
	rec, ok := st2.Lookup(netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP})
	if !ok || rec.Bytes != 100 {
		t.Fatalf("record lost in round trip")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := DecodeSegment(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatalf("garbage should error")
	}
}

// TestReindexRemovesStaleSwitches asserts the rerouting contract: when a
// record's path changes, switches it no longer traverses stop returning it
// from BySwitch (before PR 2 the index only ever grew, so a rerouted flow
// kept answering queries for its old path).
func TestReindexRemovesStaleSwitches(t *testing.T) {
	st := New()
	rec := addRecord(st, 1, 2, []netsim.NodeID{10, 11, 12}, 100)
	if got := st.BySwitch(11); len(got) != 1 {
		t.Fatalf("precondition: BySwitch(11) = %d", len(got))
	}
	// Reroute: the flow now takes 10→13→12.
	rec = st.Acquire(rec.Flow)
	rec.Absorb(&netsim.Packet{Flow: rec.Flow, Size: 50},
		header.Decoded{
			Path:   []netsim.NodeID{10, 13, 12},
			Epochs: []simtime.EpochRange{{Lo: 7, Hi: 8}, {Lo: 7, Hi: 8}, {Lo: 7, Hi: 8}},
			TagIdx: 0,
		}, 1)
	st.Release(rec)
	if got := st.BySwitch(11); len(got) != 0 {
		t.Fatalf("stale switch 11 still returns %d record(s)", len(got))
	}
	for _, sw := range []netsim.NodeID{10, 13, 12} {
		if got := st.BySwitch(sw); len(got) != 1 {
			t.Fatalf("BySwitch(%d) = %d, want 1", sw, len(got))
		}
	}
}

// TestReindexInvalidatesMemoizedBySwitch asserts the memos refresh when
// membership changes.
func TestReindexInvalidatesMemoizedBySwitch(t *testing.T) {
	st := New()
	addRecord(st, 1, 2, []netsim.NodeID{7}, 1)
	if first := st.BySwitch(7); len(first) != 1 {
		t.Fatalf("BySwitch = %d", len(first))
	}
	addRecord(st, 5, 2, []netsim.NodeID{7}, 2)
	if got := st.BySwitch(7); len(got) != 2 {
		t.Fatalf("memoized answer not invalidated: %d", len(got))
	}
}

// TestReindexUnchangedPathIsCheap asserts that re-filing a record whose
// path did not change allocates nothing: an Acquire/Release with no Absorb
// to vouch re-files it, refreshing its range in the memo present.
func TestReindexUnchangedPathIsCheap(t *testing.T) {
	st := New()
	rec := addRecord(st, 1, 2, []netsim.NodeID{10, 11}, 100)
	st.BySwitch(10)
	allocs := testing.AllocsPerRun(1000, func() { st.Release(st.Acquire(rec.Flow)) })
	if allocs != 0 {
		t.Fatalf("re-file with unchanged path: %v allocs/op, want 0", allocs)
	}
	if got := st.BySwitch(10); len(got) != 1 {
		t.Fatalf("index lost: %d", len(got))
	}
}

// TestPutReplacementInvalidatesMemos is the ingest-semantics gate: Put of a
// newer record for an already-indexed flow must invalidate the memoized
// per-switch answers even when the path is unchanged — otherwise queries
// keep serving the superseded record forever ("a later batch always wins"
// would be silently broken).
func TestPutReplacementInvalidatesMemos(t *testing.T) {
	st := New()
	old := addRecord(st, 1, 2, []netsim.NodeID{10, 11}, 100)
	if got := st.BySwitch(10); len(got) != 1 || got[0].Bytes != 100 {
		t.Fatalf("pre-replacement BySwitch = %+v", got)
	}

	// Same path, updated counters (a catch-up ingest batch).
	upd := old.Clone()
	upd.Bytes = 250
	st.Put(upd)
	if got := st.BySwitch(10); len(got) != 1 || got[0].Bytes != 250 {
		t.Fatalf("unchanged-path replacement not visible: %+v", got)
	}
	if got := st.BySwitch(11); len(got) != 1 || got[0].Bytes != 250 {
		t.Fatalf("second switch still serves the old record: %+v", got)
	}

	// Rerouted replacement: old-path-only switches stop answering, new
	// ones start, shared ones serve the new version.
	rerouted := upd.Clone()
	rerouted.Path = []netsim.NodeID{10, 12}
	rerouted.Epochs = []simtime.EpochRange{{Lo: 5, Hi: 6}, {Lo: 5, Hi: 6}}
	rerouted.Bytes = 400
	st.Put(rerouted)
	if got := st.BySwitch(11); len(got) != 0 {
		t.Fatalf("stale switch still indexed: %+v", got)
	}
	if got := st.BySwitch(12); len(got) != 1 || got[0].Bytes != 400 {
		t.Fatalf("new switch not indexed: %+v", got)
	}
	if got := st.BySwitch(10); len(got) != 1 || got[0].Bytes != 400 {
		t.Fatalf("shared switch serves a stale version: %+v", got)
	}

	// Fresh-flow Put (the bootstrap case) still indexes from scratch.
	fresh := New()
	fresh.Put(rerouted.Clone())
	if got := fresh.BySwitch(12); len(got) != 1 || got[0].Bytes != 400 {
		t.Fatalf("fresh Put not indexed: %+v", got)
	}
}

// TestPutRecencyGuard: a stale record (older LastSeen, or same LastSeen
// with fewer packets) must not clobber the resident one — arrival order
// does not decide, freshness does.
func TestPutRecencyGuard(t *testing.T) {
	st := New()
	cur := addRecord(st, 1, 2, []netsim.NodeID{10}, 100)
	cur.LastSeen = 500
	cur.Pkts = 9

	stale := cur.Clone()
	stale.LastSeen = 400
	stale.Bytes = 1
	if st.Put(stale) {
		t.Fatal("older LastSeen replaced the resident record")
	}
	if got := st.BySwitch(10); got[0].Bytes != 100 {
		t.Fatalf("stale Put visible: %+v", got[0])
	}

	fewer := cur.Clone()
	fewer.Pkts = 3
	fewer.Bytes = 2
	if st.Put(fewer) {
		t.Fatal("same LastSeen with fewer packets replaced the resident record")
	}

	newer := cur.Clone()
	newer.LastSeen = 600
	newer.Bytes = 777
	if !st.Put(newer) {
		t.Fatal("newer record rejected")
	}
	if got := st.BySwitch(10); got[0].Bytes != 777 {
		t.Fatalf("newer Put not visible: %+v", got[0])
	}
}

package store

import (
	"bytes"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// handlePath is the path every record of the handle tests is filed under.
var handlePath = []netsim.NodeID{10, 11}

// absorbVia absorbs one packet of flow at now through its handle h.
func absorbVia(st *RecordStore, h *Handle, flow netsim.FlowKey, now simtime.Time) {
	rec := st.AcquireHandle(flow, h)
	rec.Absorb(&netsim.Packet{Flow: flow, Size: 100},
		header.Decoded{Path: handlePath, Epochs: []simtime.EpochRange{{Lo: 5, Hi: 5}, {Lo: 5, Hi: 6}}, TagIdx: 0}, now)
	st.ReleaseHandle(*h, rec)
}

// putRecord installs an encoded record of flow with pkts packets, last seen
// at last.
func putRecord(st *RecordStore, flow netsim.FlowKey, pkts uint64, last simtime.Time) {
	r := flowrec.New(flow)
	r.Path = handlePath
	r.Epochs = []simtime.EpochRange{{Lo: 1, Hi: 1}, {Lo: 1, Hi: 2}}
	r.Pkts, r.Bytes, r.FirstSeen, r.LastSeen = pkts, 100*pkts, last, last
	st.Put(r)
}

// shardMates returns n flows other than flow that hash to flow's shard.
func shardMates(st *RecordStore, flow netsim.FlowKey, n int) []netsim.FlowKey {
	var out []netsim.FlowKey
	for port := uint16(1); len(out) < n; port++ {
		f := netsim.FlowKey{Src: 7, Dst: 8, SrcPort: port, DstPort: 9, Proto: netsim.ProtoUDP}
		if f != flow && st.shardOf(&f) == st.shardOf(&flow) {
			out = append(out, f)
		}
	}
	return out
}

// TestHandleSurvivesStoreChanges: between two packets of one flow absorbed
// through its handle, the store evicts the flow's record, compacts its
// shard, Put-replaces the record with a newer encoded one, or lets another
// flow reuse the freed slot. Each time the second packet lands in the flow's
// live record, and no other record changes.
func TestHandleSurvivesStoreChanges(t *testing.T) {
	const ms = simtime.Millisecond
	flow := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netsim.ProtoTCP}
	// evict evicts the n coldest records through a Maintain sweep.
	evict := func(t *testing.T, st *RecordStore, n int) {
		st.SetRetention(Retention{MaxRecords: st.Len() - n})
		if got, err := st.Maintain(150 * ms); err != nil || got != n {
			t.Fatalf("Maintain evicted %d records (%v), want %d", got, err, n)
		}
	}
	for _, tc := range []struct {
		name string
		// matesLast is when the flow's shard mates were last seen: before
		// the flow's first packet at 100 ms, or after.
		matesLast simtime.Time
		between   func(t *testing.T, st *RecordStore, h Handle, mates []netsim.FlowKey)
		// pkts is how many packets the flow's record holds after the second.
		pkts uint64
	}{
		{"evicted", 200 * ms, func(t *testing.T, st *RecordStore, _ Handle, _ []netsim.FlowKey) {
			evict(t, st, 1)
			if _, ok := st.Lookup(flow); ok {
				t.Fatal("the flow's record is still resident after its eviction")
			}
		}, 1},
		{"compacted", 0, func(t *testing.T, st *RecordStore, h Handle, mates []netsim.FlowKey) {
			// The three coldest mates leave; the dead bytes they leave behind
			// compact the shard's arena, moving the last mate's bytes.
			tab := h.sh.tab.Load()
			last := tab.find(mates[3])
			before := tab.slots[last].off
			evict(t, st, 3)
			if tab.slots[last].off == before || tab.arena.dead != 0 {
				t.Fatalf("no compaction: offset %d → %d, %d dead bytes", before, tab.slots[last].off, tab.arena.dead)
			}
		}, 2},
		{"put-replaced", 200 * ms, func(t *testing.T, st *RecordStore, _ Handle, _ []netsim.FlowKey) {
			putRecord(st, flow, 10, 100*ms+ms/2)
		}, 11},
		{"slot-reused", 200 * ms, func(t *testing.T, st *RecordStore, h Handle, _ []netsim.FlowKey) {
			evict(t, st, 1)
			other := netsim.FlowKey{Src: 7, Dst: 8, SrcPort: 0, DstPort: 9, Proto: netsim.ProtoUDP}
			for st.shardOf(&other) != h.sh {
				other.DstPort++
			}
			var oh Handle
			absorbVia(st, &oh, other, 160*ms)
			if oh.slot != h.slot {
				t.Fatalf("the new flow took slot %d, not the freed slot %d", oh.slot, h.slot)
			}
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := New()
			mates := shardMates(st, flow, 4)
			for i, f := range mates {
				putRecord(st, f, 1, tc.matesLast+simtime.Time(i)*ms)
			}
			putRecord(st, netsim.FlowKey{Src: 99, Dst: 98, Proto: netsim.ProtoUDP}, 1, 300*ms)
			var h Handle
			absorbVia(st, &h, flow, 100*ms)
			tc.between(t, st, h, mates)

			others := map[netsim.FlowKey][]byte{}
			for _, r := range snapshot(t, st) {
				if r.Flow != flow {
					others[r.Flow], _ = st.AppendEncoded(nil, r.Flow)
				}
			}
			absorbVia(st, &h, flow, 101*ms)

			rec, ok := st.Lookup(flow)
			if !ok || rec.Pkts != tc.pkts || rec.LastSeen != 101*ms {
				t.Fatalf("the flow's record after the second packet: %v (resident %v), want %d packets, last seen at 101 ms", rec, ok, tc.pkts)
			}
			if s := h.sh.tab.Load().slots[h.slot]; s.rec == nil || s.rec.Flow != flow {
				t.Fatalf("the handle points at slot %d, which does not hold the flow's live record", h.slot)
			}
			for f, enc := range others {
				if now, ok := st.AppendEncoded(nil, f); !ok || !bytes.Equal(now, enc) {
					t.Fatalf("record of %v changed under the flow's second packet", f)
				}
			}
			if st.Len() != len(others)+1 {
				t.Fatalf("%d records after the second packet, want %d", st.Len(), len(others)+1)
			}
		})
	}
}

package flowrec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// codecRecords covers the shapes the codec must keep apart: a tagged
// multi-switch flow, an untagged same-rack one with an empty (non-nil)
// EpochBytes, and a bare record with no path and a nil EpochBytes.
func codecRecords() []*Record {
	a := New(netsim.FlowKey{Src: 0x0a000001, Dst: 0x0a000102, SrcPort: 40000, DstPort: 80, Proto: 6})
	a.Priority = 3
	a.Path = []netsim.NodeID{4, 9, 5}
	a.Epochs = []simtime.EpochRange{{Lo: 10, Hi: 12}, {Lo: 11, Hi: 11}, {Lo: 9, Hi: 13}}
	a.TagIdx, a.TagLink = 1, 7
	a.Bytes, a.Pkts = 4500, 3
	a.EpochBytes[11], a.EpochBytes[10], a.EpochBytes[-3] = 3000, 1500, 1
	a.FirstSeen, a.LastSeen = 10*simtime.Millisecond, 12*simtime.Millisecond

	b := New(netsim.FlowKey{Src: 0x0a000002, Dst: 0x0a000003, SrcPort: 1, DstPort: 65535, Proto: 17})
	b.Path = []netsim.NodeID{4}
	b.Epochs = []simtime.EpochRange{{Lo: -2, Hi: 1 << 40}}
	b.Bytes, b.Pkts, b.LastSeen = 1<<63+5, 1<<33, 1<<50

	c := &Record{Flow: netsim.FlowKey{Src: 0xffffffff, Dst: 1, Proto: 255}, Priority: 255, TagIdx: -1}
	return []*Record{a, b, c}
}

func mustEncode(t testing.TB, recs []*Record) []byte {
	t.Helper()
	b, err := AppendSegment(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSegmentRoundTrip(t *testing.T) {
	recs := codecRecords()
	enc := mustEncode(t, recs)
	got, err := DecodeSegment(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip changed the records:\n got %v\nwant %v", got, recs)
	}
	// nil-vs-empty survives, so the JSON the wire carries is unchanged.
	want, _ := json.Marshal(recs)
	have, _ := json.Marshal(got)
	if !bytes.Equal(have, want) {
		t.Fatalf("round trip changed the JSON:\n got %s\nwant %s", have, want)
	}
	if total, err := SegmentLen(enc); err != nil || total != len(enc) {
		t.Fatalf("SegmentLen = %d, %v; the segment is %d bytes", total, err, len(enc))
	}

	// An empty segment decodes to no records; an empty Path/Epochs to nil.
	empty, err := DecodeSegment(mustEncode(t, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty segment decoded to %v, %v", empty, err)
	}
	d := New(recs[0].Flow)
	d.Path, d.Epochs = []netsim.NodeID{}, []simtime.EpochRange{}
	got, err = DecodeSegment(mustEncode(t, []*Record{d}))
	if err != nil || got[0].Path != nil || got[0].Epochs != nil || got[0].EpochBytes == nil {
		t.Fatalf("empty slices decoded to %+v, %v", got[0], err)
	}
}

// TestSegmentDeterministic: equal records give equal bytes whatever order
// their EpochBytes maps were filled (or happen to iterate) in.
func TestSegmentDeterministic(t *testing.T) {
	recs := codecRecords()
	first := mustEncode(t, recs)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(mustEncode(t, recs), first) {
			t.Fatal("encoding the same records twice gave different bytes")
		}
	}
	rev := recs[0].Clone()
	rev.EpochBytes = map[simtime.Epoch]uint64{}
	for _, e := range []simtime.Epoch{11, -3, 10} {
		rev.EpochBytes[e] = recs[0].EpochBytes[e]
	}
	if !bytes.Equal(AppendRecord(nil, rev), AppendRecord(nil, recs[0])) {
		t.Fatal("map fill order leaked into the encoding")
	}
	// AppendSegment appends: a prefix in dst is kept.
	pre := []byte("prefix")
	out, err := AppendSegment(pre, recs)
	if err != nil || !bytes.Equal(out[:6], pre) || !bytes.Equal(out[6:], first) {
		t.Fatalf("AppendSegment onto a prefix: %v", err)
	}
}

func TestDecodeSegmentRejectsCorrupt(t *testing.T) {
	enc := mustEncode(t, codecRecords())
	// Every truncation, with and without a header patched to match it.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeSegment(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
		if n >= SegmentHeaderLen {
			cut := bytes.Clone(enc[:n])
			binary.LittleEndian.PutUint32(cut[16:], uint32(n-SegmentHeaderLen))
			if _, err := DecodeSegment(cut); err == nil {
				t.Fatalf("truncation to %d bytes with a consistent header decoded", n)
			}
		}
	}
	mutate := func(name string, f func(b []byte) []byte) {
		t.Helper()
		if _, err := DecodeSegment(f(bytes.Clone(enc))); err == nil {
			t.Fatalf("%s decoded", name)
		}
	}
	mutate("trailing byte", func(b []byte) []byte { return append(b, 0) })
	mutate("unknown version", func(b []byte) []byte { b[3] = SegmentVersion + 1; return b })
	mutate("foreign magic", func(b []byte) []byte { b[0] = 0x22; return b })
	for _, off := range []int{4, 8, 12} {
		mutate("oversized count", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], 1<<31); return b })
		mutate("count one short", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[off:], binary.LittleEndian.Uint32(b[off:])-1)
			return b
		})
	}

	// The encoder's pair list is epoch-sorted; a decoder accepts nothing else.
	r := New(netsim.FlowKey{Src: 1, Dst: 2})
	r.EpochBytes[1], r.EpochBytes[2] = 10, 20
	one := mustEncode(t, []*Record{r})
	pairs := one[len(one)-4:] // (varint 1, 10), (varint 2, 20)
	pairs[0], pairs[2] = pairs[2], pairs[0]
	if _, err := DecodeSegment(one); err == nil {
		t.Fatal("unsorted EpochBytes pairs decoded")
	}
}

// TestDecodeSegmentBoundsAllocation: forged counts are refused before they
// size anything — a 20-byte input cannot make the decoder allocate slabs.
func TestDecodeSegmentBoundsAllocation(t *testing.T) {
	forged := mustEncode(t, nil)
	for _, off := range []int{4, 8, 12} {
		binary.LittleEndian.PutUint32(forged[off:], 1<<32-1)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeSegment(forged); err == nil {
			t.Fatal("forged counts decoded")
		}
	})
	if allocs > 8 { // the error value, nothing sized from the counts
		t.Fatalf("forged counts cost %.0f allocations", allocs)
	}
}

// TestDecodedSlicesAreCapped: records share slabs, so an append to one
// record's Path or Epochs (Absorb on a rerouted flow) must reallocate, never
// write into its neighbour's.
func TestDecodedSlicesAreCapped(t *testing.T) {
	recs := codecRecords()[:2]
	got, err := DecodeSegment(mustEncode(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	got[0].Path = append(got[0].Path, 77)
	got[0].Epochs = append(got[0].Epochs, simtime.EpochRange{Lo: 77, Hi: 77})
	if !reflect.DeepEqual(got[1], recs[1]) {
		t.Fatalf("append to record 0 changed record 1: %+v", got[1])
	}
}

func segment256() []*Record {
	recs := make([]*Record, 256)
	for i := range recs {
		r := New(netsim.FlowKey{Src: netsim.IPv4(0x0a000000 + i), Dst: 0x0a010001, SrcPort: uint16(1024 + i), DstPort: 80, Proto: 6})
		r.Path = []netsim.NodeID{3, 17, 40, 18, 5}
		for j := range r.Path {
			r.Epochs = append(r.Epochs, simtime.EpochRange{Lo: simtime.Epoch(1000 + i + j), Hi: simtime.Epoch(1001 + i + j)})
		}
		r.TagIdx = 2
		r.Bytes, r.Pkts = uint64(1500*(i+1)), uint64(i+1)
		r.EpochBytes[r.Epochs[2].Lo] = r.Bytes
		r.FirstSeen, r.LastSeen = simtime.Time(i)*simtime.Millisecond, simtime.Time(i+1)*simtime.Millisecond
		recs[i] = r
	}
	return recs
}

// TestDecodeSegmentAllocs pins the decode cost the cold-read path pays: four
// slabs per segment plus the per-record map, at most 3 allocations a record
// (gob spent about 15).
func TestDecodeSegmentAllocs(t *testing.T) {
	recs := segment256()
	enc := mustEncode(t, recs)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeSegment(enc); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(len(recs)); per > 3 {
		t.Fatalf("decode costs %.2f allocations per record (%.0f per segment), want ≤ 3", per, allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { mustEncode(t, recs) }); allocs > float64(len(recs))+1 {
		t.Fatalf("encode costs %.0f allocations per segment, want the buffer and a sorted epoch list per record", allocs)
	}
}

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

// decodeAll is DecodeSegment with no predicate.
func decodeAll(b []byte) ([]*Record, error) {
	recs, _, err := DecodeSegment(b, nil)
	return recs, err
}

func mustEncode(t testing.TB, recs []*Record) []byte {
	t.Helper()
	return mustEncodeInto(t, nil, recs)
}

func mustEncodeInto(t testing.TB, dst []byte, recs []*Record) []byte {
	t.Helper()
	b, err := AppendSegment(dst, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSegmentRoundTrip(t *testing.T) {
	recs := codecRecords()
	enc := mustEncode(t, recs)
	got, err := decodeAll(enc)
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
	for _, r := range append(recs, segment256()...) {
		if n, want := recordLen(r), len(AppendRecord(nil, r)); n != want {
			t.Fatalf("recordLen(%v) = %d, AppendRecord wrote %d bytes", r, n, want)
		}
	}

	// An empty segment decodes to no records; an empty Path/Epochs to nil.
	empty, err := decodeAll(mustEncode(t, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty segment decoded to %v, %v", empty, err)
	}
	d := New(recs[0].Flow)
	d.Path, d.Epochs = []netsim.NodeID{}, []simtime.EpochRange{}
	got, err = decodeAll(mustEncode(t, []*Record{d}))
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
	// decodes reports whether b decodes, after checking that it does with
	// and without a keep alike: a rejected record is still validated.
	decodes := func(b []byte) bool {
		t.Helper()
		_, _, errAll := DecodeSegment(b, nil)
		_, _, errNone := DecodeSegment(b, everyNth(0))
		_, _, errSome := DecodeSegment(b, everyNth(2))
		if (errAll == nil) != (errNone == nil) || (errAll == nil) != (errSome == nil) {
			t.Fatalf("keep changed whether a segment decodes: %v / %v / %v", errAll, errNone, errSome)
		}
		return errAll == nil
	}
	// Every truncation, with and without a header patched to match it.
	for n := 0; n < len(enc); n++ {
		if decodes(enc[:n]) {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
		if n >= SegmentHeaderLen {
			cut := bytes.Clone(enc[:n])
			binary.LittleEndian.PutUint32(cut[16:], uint32(n-SegmentHeaderLen))
			if decodes(cut) {
				t.Fatalf("truncation to %d bytes with a consistent header decoded", n)
			}
		}
	}
	mutate := func(name string, f func(b []byte) []byte) {
		t.Helper()
		if decodes(f(bytes.Clone(enc))) {
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
	if decodes(one) {
		t.Fatal("unsorted EpochBytes pairs decoded")
	}
}

// TestDecodedSlicesAreCapped: records share slabs, so an append to one
// record's Path or Epochs (Absorb on a rerouted flow) must reallocate, never
// write into its neighbour's.
func TestDecodedSlicesAreCapped(t *testing.T) {
	recs := codecRecords()[:2]
	got, err := decodeAll(mustEncode(t, recs))
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

// everyNth admits records whose segment index is a multiple of n (none when
// n is 0), counting its own calls — keep is called once per record, in order.
func everyNth(n int) func(*Record) bool {
	i := -1
	return func(*Record) bool {
		i++
		return n > 0 && i%n == 0
	}
}

// TestFilteredDecodeIsFilteredFullDecode: with a keep, the decode returns
// exactly the full decode's records that keep admits, in order, with the
// same record count; keep sees each record's fields except EpochBytes.
func TestFilteredDecodeIsFilteredFullDecode(t *testing.T) {
	for name, recs := range map[string][]*Record{"shapes": codecRecords(), "256": segment256(), "empty": nil} {
		enc := mustEncode(t, recs)
		full, err := decodeAll(enc)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, 3, 7, 300} {
			var want []*Record
			for i, r := range full {
				if n > 0 && i%n == 0 {
					want = append(want, r)
				}
			}
			admit := everyNth(n)
			seen := 0
			got, count, err := DecodeSegment(enc, func(r *Record) bool {
				if r.EpochBytes != nil || r.Flow != full[seen].Flow || !reflect.DeepEqual(r.Path, full[seen].Path) ||
					!reflect.DeepEqual(r.Epochs, full[seen].Epochs) || r.Bytes != full[seen].Bytes || r.LastSeen != full[seen].LastSeen {
					t.Fatalf("%s: keep saw %+v for record %d, want %+v without EpochBytes", name, r, seen, full[seen])
				}
				seen++
				return admit(r)
			})
			if err != nil || count != len(recs) || seen != len(recs) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, every %dth: got %d of %d records (keep saw %d), %v; want %d", name, n, len(got), count, seen, err, len(want))
			}
		}
	}
}

// encodings returns AppendRecord's encoding of each record.
func encodings(recs []*Record) [][]byte {
	encs := make([][]byte, len(recs))
	for i, r := range recs {
		encs[i] = AppendRecord(nil, r)
	}
	return encs
}

// TestSpliceSegmentIsAppendSegment: splicing records' encodings gives the
// bytes AppendSegment gives for the records, after whatever dst held, and
// each encoding opens with its record's flow key.
func TestSpliceSegmentIsAppendSegment(t *testing.T) {
	for name, recs := range map[string][]*Record{"shapes": codecRecords(), "256": segment256(), "empty": nil} {
		encs := encodings(recs)
		for i, enc := range encs {
			if FlowOf(enc) != recs[i].Flow {
				t.Fatalf("%s: FlowOf(record %d) = %v, want %v", name, i, FlowOf(enc), recs[i].Flow)
			}
		}
		got, err := SpliceSegment([]byte("prefix"), encs)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustEncodeInto(t, []byte("prefix"), recs); !bytes.Equal(got, want) {
			t.Fatalf("%s: splice differs from AppendSegment:\n got %x\nwant %x", name, got, want)
		}
	}
}

// TestSpliceSegmentRejectsBadRanges: a range that is not exactly one record
// — short, with a byte of the next record, or empty — fails the splice and
// leaves dst as it was.
func TestSpliceSegmentRejectsBadRanges(t *testing.T) {
	encs := encodings(codecRecords())
	for name, bad := range map[string][]byte{
		"short": encs[0][:len(encs[0])-1],
		"long":  append(bytes.Clone(encs[0]), encs[1][0]),
		"empty": {},
	} {
		dst := []byte("prefix")
		got, err := SpliceSegment(dst, [][]byte{encs[1], bad, encs[2]})
		if err == nil || string(got) != "prefix" {
			t.Fatalf("%s range: splice = %q, %v; want the prefix and an error", name, got, err)
		}
	}
}

// TestDecodeRecordAndScratch: DecodeRecord and Scratch.Decode give the
// record AppendRecord encoded — a nil EpochBytes stays nil, an empty one
// empty — and the scratch forgets the previous record's epochs.
func TestDecodeRecordAndScratch(t *testing.T) {
	var sc Scratch
	for _, r := range codecRecords() {
		enc := AppendRecord(nil, r)
		got, err := DecodeRecord(enc)
		if err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("DecodeRecord = %+v, %v; want %+v", got, err, r)
		}
		scr, err := sc.Decode(enc)
		if err != nil || !bytes.Equal(AppendRecord(nil, scr), enc) || (scr.EpochBytes == nil) != (r.EpochBytes == nil) {
			t.Fatalf("Scratch.Decode = %+v, %v; want %+v", scr, err, r)
		}
		if _, err := DecodeRecord(enc[:len(enc)-1]); err == nil {
			t.Fatal("a truncated record decoded")
		}
	}
}

// TestScanSegmentHandsOutEncodings: ScanSegment gives every record keep
// admits with its exact encoding, and on a corrupt segment calls fn never.
func TestScanSegmentHandsOutEncodings(t *testing.T) {
	recs := segment256()
	seg := mustEncode(t, recs)
	var got [][]byte
	n, err := ScanSegment(seg, everyNth(3), func(r *Record, enc []byte) {
		if r.Flow != FlowOf(enc) {
			t.Fatalf("record %v handed with the encoding of %v", r.Flow, FlowOf(enc))
		}
		got = append(got, bytes.Clone(enc))
	})
	if err != nil || n != len(recs) {
		t.Fatalf("ScanSegment = %d, %v", n, err)
	}
	var want [][]byte
	for i, enc := range encodings(recs) {
		if i%3 == 0 {
			want = append(want, enc)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan handed %d encodings, want %d, or different bytes", len(got), len(want))
	}
	if _, err := ScanSegment(seg[:len(seg)-1], nil, func(*Record, []byte) { t.Fatal("fn called on a corrupt segment") }); err == nil {
		t.Fatal("a truncated segment scanned")
	}
}

// FuzzSpliceSegment: for the records of any segment that decodes, splicing
// their encodings gives AppendSegment's bytes; a truncated encoding fails the
// splice; and a corrupted one fails the splice or the spliced segment's
// decode, or decodes to as many records — never a panic. Any input taken as
// one range either fails, or splices into a segment of one record at most.
func FuzzSpliceSegment(f *testing.F) {
	for _, recs := range [][]*Record{codecRecords(), segment256()[:3], nil} {
		f.Add(mustEncode(f, recs), uint16(0), uint16(1), byte(0x40))
	}
	f.Fuzz(func(t *testing.T, seg []byte, pick, at uint16, flip byte) {
		if one, err := SpliceSegment(nil, [][]byte{seg}); err == nil {
			if recs, _, err := DecodeSegment(one, nil); err == nil && len(recs) != 1 {
				t.Fatalf("one spliced range decodes to %d records", len(recs))
			}
		}
		recs, _, err := DecodeSegment(seg, nil)
		if err != nil {
			return
		}
		encs := encodings(recs)
		got, err := SpliceSegment(nil, encs)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustEncode(t, recs); !bytes.Equal(got, want) {
			t.Fatalf("splice differs from AppendSegment:\n got %x\nwant %x", got, want)
		}
		if len(encs) == 0 {
			return
		}
		i := int(pick) % len(encs)
		enc := encs[i]
		encs[i] = enc[:int(at)%len(enc)]
		if out, err := SpliceSegment(nil, encs); err == nil {
			t.Fatalf("a range cut to %d of %d bytes spliced: %x", len(encs[i]), len(enc), out)
		}
		encs[i] = bytes.Clone(enc)
		encs[i][int(at)%len(enc)] ^= flip
		if out, err := SpliceSegment(nil, encs); err == nil {
			if again, _, err := DecodeSegment(out, nil); err == nil && len(again) != len(recs) {
				t.Fatalf("a spliced corrupted range decodes to %d of %d records", len(again), len(recs))
			}
		}
	})
}

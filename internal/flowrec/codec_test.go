package flowrec

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
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
	for _, r := range append(recs, segment256()...) {
		if n, want := recordLen(r), len(AppendRecord(nil, r)); n != want {
			t.Fatalf("recordLen(%v) = %d, AppendRecord wrote %d bytes", r, n, want)
		}
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
	recs := codecRecords()
	encs := encodings(recs)
	enc := mustEncode(t, recs)
	// starts[i] is where record i opens within enc, and starts[3] its end.
	starts := []int{SegmentHeaderLen}
	for _, e := range encs {
		starts = append(starts, starts[len(starts)-1]+len(e))
	}
	// decodes reports whether b, the segment what names, decodes, after
	// checking that the reference decoder, ValidateSegment and ScanSegment,
	// whatever its keep, accept it exactly then: a rejected record is still
	// validated.
	decodes := func(what string, b []byte) bool {
		t.Helper()
		_, errAll := DecodeSegment(b)
		_, errRef := refDecodeSegment(b)
		_, errNone := ScanSegment(b, everyNth(0), func(*Cursor) {})
		_, errSome := ScanSegment(b, everyNth(2), func(*Cursor) {})
		_, errWalk := ValidateSegment(b)
		ok := errAll == nil
		if (errRef == nil) != ok || (errNone == nil) != ok || (errSome == nil) != ok || (errWalk == nil) != ok {
			t.Fatalf("%s: an entry point disagrees with the decode: %v / reference: %v / %v / %v / %v", what, errAll, errRef, errNone, errSome, errWalk)
		}
		return ok
	}
	// Every truncation, with and without a header patched to match it; the
	// record the cut falls in, cut short, is not one record either.
	if !decodes("the intact segment", enc) {
		t.Fatal("the intact segment does not decode")
	}
	for n := 0; n < len(enc); n++ {
		if decodes("a truncation", enc[:n]) {
			t.Fatalf("truncation to %d bytes decoded", n)
		}
		if n >= SegmentHeaderLen {
			cut := bytes.Clone(enc[:n])
			binary.LittleEndian.PutUint32(cut[16:], uint32(n-SegmentHeaderLen))
			if decodes("a truncation with a consistent header", cut) {
				t.Fatalf("truncation to %d bytes with a consistent header decoded", n)
			}
			i := 0
			for starts[i+1] <= n {
				i++
			}
			if acceptsRecord(t, cut[starts[i]:]) {
				t.Fatalf("record %d cut to %d of %d bytes was accepted as one record", i, n-starts[i], len(encs[i]))
			}
		}
	}
	// Each row corrupts one copy of enc; a row that corrupts record rec's
	// body (rec ≥ 0) also runs that record's range through every one-record
	// entry point.
	for _, row := range []struct {
		name string
		rec  int
		f    func(b []byte) []byte
	}{
		{"trailing byte", 2, func(b []byte) []byte { return append(b, 0) }},
		{"unknown version", -1, func(b []byte) []byte { b[3] = SegmentVersion + 1; return b }},
		{"foreign magic", -1, func(b []byte) []byte { b[0] = 0x22; return b }},
		{"oversized record count", -1, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 1<<31); return b }},
		{"oversized path count", -1, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1<<31); return b }},
		{"oversized epoch count", -1, func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 1<<31); return b }},
		{"record count one short", -1, func(b []byte) []byte { b[4]--; return b }},
		{"path count one short", -1, func(b []byte) []byte { b[8]--; return b }},
		{"epoch count one short", -1, func(b []byte) []byte { b[12]--; return b }},
		{"last varint runs off the end", 2, func(b []byte) []byte { b[len(b)-1] = 0xff; return b }},
	} {
		b := row.f(bytes.Clone(enc))
		if decodes(row.name, b) {
			t.Fatalf("%s decoded", row.name)
		}
		if row.rec >= 0 && acceptsRecord(t, b[starts[row.rec]:starts[row.rec+1]+len(b)-len(enc)]) {
			t.Fatalf("%s: record %d's range was accepted as one record", row.name, row.rec)
		}
	}

	// Each record rule, broken once in the middle record of a segment whose
	// header matches it, fails every entry point; the intact row passes them.
	for _, row := range ruleRows() {
		seg := rawSegment([][]byte{encs[0], row.enc, encs[2]}, len(recs[0].Path)+1, len(recs[0].Epochs)+1)
		if got := decodes(row.name, seg); got != row.valid {
			t.Fatalf("%s: the segment decodes %v, want %v", row.name, got, row.valid)
		}
		if got := acceptsRecord(t, row.enc); got != row.valid {
			t.Fatalf("%s: accepted as one record %v, want %v", row.name, got, row.valid)
		}
	}
}

// ruleRow is one record encoding and whether it keeps every record rule.
type ruleRow struct {
	name  string
	enc   []byte
	valid bool
}

// ruleRows returns one record, field by field, that keeps every record rule,
// and a copy of it for each rule, broken. Each has a path of one switch and
// one epoch range.
func ruleRows() []ruleRow {
	// TagIdx 0, TagLink 7, Bytes 30, Pkts 2, FirstSeen 0, LastSeen 0, Path
	// [4], Epochs [{1 1}], EpochBytes {2: 10, 3: 20} (zigzag: 2n).
	intact := []uint64{0, 7, 30, 2, 0, 0, 1, 4, 1, 2, 2, 3, 4, 10, 6, 20}
	with := func(at int, v uint64, more ...uint64) []byte {
		fields := slices.Clone(intact)
		fields[at] = v
		for i, m := range more {
			fields[at+1+i] = m
		}
		return rawRecord(fields...)
	}
	overlong := append(rawRecord(intact[:2]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)
	return []ruleRow{
		{"intact", rawRecord(intact...), true},
		{"TagLink past 32 bits", with(1, 1<<32), false},
		{"path entry past 32 bits", with(7, 1<<32), false},
		{"pair epochs descending", with(12, 6, 10, 4), false},
		{"pair epoch repeated", with(14, 4), false},
		{"pair count past its bytes", with(11, 9), false},
		{"varint past 64 bits", append(overlong, rawRecord(intact[3:]...)[fixedRecordLen:]...), false},
	}
}

// rawRecord encodes a record from its varint fields, unchecked, after the
// fixed prefix of flow 10.0.0.1→10.0.0.2.
func rawRecord(fields ...uint64) []byte {
	b := AppendRecord(nil, &Record{Flow: netsim.FlowKey{Src: 0x0a000001, Dst: 0x0a000002}})[:fixedRecordLen]
	for _, f := range fields {
		b = binary.AppendUvarint(b, f)
	}
	return b
}

// rawSegment frames ranges as one segment whose header declares npath paths
// and nepoch epoch ranges, whatever the ranges hold.
func rawSegment(ranges [][]byte, npath, nepoch int) []byte {
	b := []byte{segMagic[0], segMagic[1], segMagic[2], SegmentVersion}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ranges)))
	b = binary.LittleEndian.AppendUint32(b, uint32(npath))
	b = binary.LittleEndian.AppendUint32(b, uint32(nepoch))
	b = binary.LittleEndian.AppendUint32(b, 0) // body length, patched below
	for _, r := range ranges {
		b = append(b, r...)
	}
	binary.LittleEndian.PutUint32(b[16:], uint32(len(b)-SegmentHeaderLen))
	return b
}

// acceptsRecord reports whether enc is exactly one valid record, after
// checking that DecodeRecord, Scratch.Decode, a one-range SpliceSegment and
// the reference decoder all accept it or all refuse it, and that each
// decode gives the reference's record.
func acceptsRecord(t testing.TB, enc []byte) bool {
	t.Helper()
	want, ok := refDecodeRecord(enc)
	got, err := DecodeRecord(enc)
	var sc Scratch
	scr, scrErr := sc.Decode(enc)
	_, spliceErr := SpliceSegment(nil, [][]byte{enc})
	if (err == nil) != ok || (scrErr == nil) != ok || (spliceErr == nil) != ok {
		t.Fatalf("reference accepts %x: %v; DecodeRecord: %v; Scratch.Decode: %v; SpliceSegment: %v", enc, ok, err, scrErr, spliceErr)
	}
	if ok && (!reflect.DeepEqual(got, want) || !reflect.DeepEqual(scr, want)) {
		t.Fatalf("%x decodes to %+v and %+v; the reference gives %+v", enc, got, scr, want)
	}
	return ok
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

// everyNth admits records whose segment index is a multiple of n (none when
// n is 0), counting its own calls — keep is called once per record, in order.
func everyNth(n int) func(*Cursor) bool {
	i := -1
	return func(*Cursor) bool {
		i++
		return n > 0 && i%n == 0
	}
}

// TestFilteredDecodeIsFilteredFullDecode: ScanSegment with a keep hands
// out exactly the full decode's records that keep admits, in order, as
// encodings DecodeRecord turns back into those records, and returns the
// segment's record count; keep's cursor reads each record as decoded.
func TestFilteredDecodeIsFilteredFullDecode(t *testing.T) {
	for name, recs := range map[string][]*Record{"shapes": codecRecords(), "256": segment256(), "empty": nil} {
		enc := mustEncode(t, recs)
		full, err := DecodeSegment(enc)
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
			var got []*Record
			count, err := ScanSegment(enc, func(c *Cursor) bool {
				if diff := cursorMismatch(c, full[seen]); diff != "" {
					t.Fatalf("%s: keep's cursor at record %d: %s", name, seen, diff)
				}
				seen++
				return admit(c)
			}, func(c *Cursor) {
				r, err := DecodeRecord(c.Encoding())
				if err != nil {
					t.Fatal(err)
				}
				if diff := cursorMismatch(c, r); diff != "" {
					t.Fatalf("%s: fn's cursor: %s", name, diff)
				}
				got = append(got, r)
			})
			if err != nil || count != len(recs) || seen != len(recs) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, every %dth: got %d of %d records (keep saw %d), %v; want %d", name, n, len(got), count, seen, err, len(want))
			}
		}
	}
}

// cursorMismatch says how c's record differs from r, or returns "". It asks
// EpochsAt at every switch on r's path and at two off it, and BytesIn over
// every epoch r counts, its neighbours, everything and nothing.
func cursorMismatch(c *Cursor, r *Record) string {
	got, err := DecodeRecord(c.Encoding())
	if err != nil || !reflect.DeepEqual(got, r) {
		return fmt.Sprintf("encoding decodes to %+v, %v; want %+v", got, err, r)
	}
	if c.Flow() != r.Flow || c.Priority() != r.Priority || c.Bytes() != r.Bytes || c.TagLink() != r.TagLink {
		return fmt.Sprintf("flow %v priority %d bytes %d link %d; want %v %d %d %d",
			c.Flow(), c.Priority(), c.Bytes(), c.TagLink(), r.Flow, r.Priority, r.Bytes, r.TagLink)
	}
	for _, sw := range append([]netsim.NodeID{-1, 1 << 30}, r.Path...) {
		er, ok := c.EpochsAt(sw)
		if wantER, wantOK := r.EpochsAt(sw); er != wantER || ok != wantOK {
			return fmt.Sprintf("EpochsAt(%d) = %v, %v; want %v, %v", sw, er, ok, wantER, wantOK)
		}
	}
	windows := []simtime.EpochRange{{Lo: math.MinInt64, Hi: math.MaxInt64}, {Lo: 1, Hi: 0}}
	for e := range r.EpochBytes {
		windows = append(windows, simtime.EpochRange{Lo: e, Hi: e}, simtime.EpochRange{Lo: e - 1, Hi: e - 1},
			simtime.EpochRange{Lo: e + 1, Hi: e + 1}, simtime.EpochRange{Lo: e, Hi: math.MaxInt64})
	}
	for _, w := range windows {
		if got, want := c.BytesIn(w), r.BytesIn(w); got != want {
			return fmt.Sprintf("BytesIn(%v) = %d; want %d", w, got, want)
		}
	}
	return ""
}

// TestCursorReadsEveryRecord: a cursor over a segment reads each record as
// its decode does, counts the header's records, and stops clean at the end.
func TestCursorReadsEveryRecord(t *testing.T) {
	for name, recs := range map[string][]*Record{"shapes": codecRecords(), "256": segment256(), "empty": nil} {
		c := NewCursor(mustEncode(t, recs))
		i := 0
		for ; c.Next(); i++ {
			if diff := cursorMismatch(&c, recs[i]); diff != "" {
				t.Fatalf("%s, record %d: %s", name, i, diff)
			}
		}
		if c.Err() != nil || i != len(recs) || c.Len() != len(recs) || c.Next() {
			t.Fatalf("%s: walked %d of %d records (Len %d): %v", name, i, len(recs), c.Len(), c.Err())
		}
	}
}

// TestCursorErrorSticks: a corrupt record stops the walk where it lies,
// after the records before it, and every later Next is false.
func TestCursorErrorSticks(t *testing.T) {
	recs := codecRecords()
	seg := mustEncode(t, recs)
	bad := bytes.Clone(seg)
	bad[len(bad)-1] = 0xff // the last record's last varint runs off the end
	c := NewCursor(bad)
	i := 0
	for c.Next() {
		i++
	}
	if c.Err() == nil || i != len(recs)-1 || c.Next() || c.Encoding() != nil {
		t.Fatalf("walked %d records of a segment corrupt in record %d, error %v", i, len(recs)-1, c.Err())
	}
	if c := NewCursor(seg[:SegmentHeaderLen-1]); c.Next() || c.Err() == nil || c.Len() != 0 {
		t.Fatalf("a short header walked: Len %d, %v", c.Len(), c.Err())
	}
	if c := NewCursor(nil); c.Next() || c.Err() == nil {
		t.Fatal("a nil segment walked")
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
	n, err := ScanSegment(seg, everyNth(3), func(c *Cursor) {
		got = append(got, bytes.Clone(c.Encoding()))
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
	if _, err := ScanSegment(seg[:len(seg)-1], nil, func(*Cursor) { t.Fatal("fn called on a corrupt segment") }); err == nil {
		t.Fatal("a truncated segment scanned")
	}
}

// FuzzSpliceSegment: any input, taken as a segment, decodes exactly when the
// reference decoder does, to the same records, and ValidateSegment accepts
// it exactly then. Taken as one range, it splices exactly when DecodeRecord,
// Scratch.Decode and the reference accept it as one record, into a segment
// that decodes to that record. For the records of a segment that decodes,
// splicing their encodings gives AppendSegment's bytes; a truncated encoding
// fails the splice; a corrupted one splices exactly when it is still one
// valid record, and then the spliced segment decodes to as many records. A
// cursor over every segment that splices reads each record as decoded.
func FuzzSpliceSegment(f *testing.F) {
	for _, recs := range [][]*Record{codecRecords(), segment256()[:3], nil} {
		f.Add(mustEncode(f, recs), uint16(0), uint16(1), byte(0x40))
	}
	for _, row := range ruleRows() {
		f.Add(rawSegment([][]byte{row.enc}, 1, 1), uint16(0), uint16(1), byte(0x40))
		f.Add(row.enc, uint16(0), uint16(1), byte(0x40))
	}
	f.Fuzz(func(t *testing.T, seg []byte, pick, at uint16, flip byte) {
		recs, err := DecodeSegment(seg)
		want, wantErr := refDecodeSegment(seg)
		_, walkErr := ValidateSegment(seg)
		if (err == nil) != (wantErr == nil) || (walkErr == nil) != (wantErr == nil) {
			t.Fatalf("decode: %v; walk: %v; the reference decode: %v", err, walkErr, wantErr)
		}
		if err == nil && !reflect.DeepEqual(recs, want) {
			t.Fatalf("decoded %+v; the reference decodes %+v", recs, want)
		}
		one, spliceErr := SpliceSegment(nil, [][]byte{seg})
		if ok := acceptsRecord(t, seg); ok != (spliceErr == nil) {
			t.Fatalf("one range: accepted as a record %v, splice %v", ok, spliceErr)
		}
		if spliceErr == nil {
			got, err := DecodeSegment(one)
			r, _ := DecodeRecord(seg)
			if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], r) {
				t.Fatalf("one spliced range decodes to %+v, %v; want %+v", got, err, r)
			}
			walkCursor(t, one, got)
		}
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
		out, err := SpliceSegment(nil, encs)
		if ok := acceptsRecord(t, encs[i]); ok != (err == nil) {
			t.Fatalf("a corrupted range: accepted as a record %v, splice %v", ok, err)
		}
		if err == nil {
			again, err := DecodeSegment(out)
			if err != nil || len(again) != len(recs) {
				t.Fatalf("a spliced corrupted range decodes to %d of %d records: %v", len(again), len(recs), err)
			}
			walkCursor(t, out, again)
		}
	})
}

// walkCursor walks seg, a segment that decodes to recs, with a cursor and
// checks that it reads each record as decoded and ends clean.
func walkCursor(t *testing.T, seg []byte, recs []*Record) {
	t.Helper()
	c := NewCursor(seg)
	i := 0
	for ; c.Next(); i++ {
		if diff := cursorMismatch(&c, recs[i]); diff != "" {
			t.Fatalf("record %d: %s", i, diff)
		}
	}
	if c.Err() != nil || i != len(recs) {
		t.Fatalf("the cursor walked %d records, %v; the decode: %d records", i, c.Err(), len(recs))
	}
}

// Reference is package flowrectest's reference decoder, which states the
// record rules again apart from Next, so a rule dropped from Next shows as a
// disagreement. flowrectest imports this package, so this package's own
// tests cannot import it: ref_test.go, in package flowrec_test, hands it in.
var Reference struct {
	DecodeSegment func(b []byte) ([]*Record, error)
	DecodeRecord  func(enc []byte) (*Record, bool)
}

// refDecodeSegment decodes segment b the reference way.
func refDecodeSegment(b []byte) ([]*Record, error) { return Reference.DecodeSegment(b) }

// refDecodeRecord decodes enc, exactly one record, the reference way.
func refDecodeRecord(enc []byte) (*Record, bool) { return Reference.DecodeRecord(enc) }

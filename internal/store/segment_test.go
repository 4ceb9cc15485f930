package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/flowrec/flowrectest"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// fixtureRecords covers the record shapes a segment must round-trip:
// tagged and untagged, paths of three, one and no switches, and
// EpochBytes filled, empty and nil.
func fixtureRecords() []*flowrec.Record {
	a := flowrec.New(netsim.FlowKey{Src: 0x0a000001, Dst: 0x0a000102, SrcPort: 40000, DstPort: 80, Proto: 6})
	a.Priority = 3
	a.Path = []netsim.NodeID{4, 9, 5}
	a.Epochs = []simtime.EpochRange{{Lo: 10, Hi: 12}, {Lo: 11, Hi: 11}, {Lo: 9, Hi: 13}}
	a.TagIdx = 1
	a.TagLink = 7
	a.Bytes, a.Pkts = 4500, 3
	a.EpochBytes[11] = 3000
	a.EpochBytes[10] = 1500
	a.FirstSeen, a.LastSeen = 10*simtime.Millisecond, 12*simtime.Millisecond

	// Untagged, same-rack (single switch), empty but non-nil EpochBytes.
	b := flowrec.New(netsim.FlowKey{Src: 0x0a000002, Dst: 0x0a000003, SrcPort: 1, DstPort: 65535, Proto: 17})
	b.Path = []netsim.NodeID{4}
	b.Epochs = []simtime.EpochRange{{Lo: -2, Hi: 1 << 40}}
	b.Bytes, b.Pkts = 1<<40, 1<<33
	b.LastSeen = 1 << 50

	// No path, nil EpochBytes.
	c := &flowrec.Record{Flow: netsim.FlowKey{Src: 0xffffffff, Dst: 1, Proto: 255}, Priority: 255, TagIdx: -1}
	return []*flowrec.Record{a, b, c}
}

func encodeSegment(t testing.TB, recs []*flowrec.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeSegmentIsSelfDelimiting: segments concatenated on one stream
// come off it one DecodeSegment at a time, whether or not the reader can
// hand out single bytes; the exhausted stream reads io.EOF, and a cut
// anywhere inside a segment is an error that is not io.EOF.
func TestDecodeSegmentIsSelfDelimiting(t *testing.T) {
	recs := fixtureRecords()
	one, two := encodeSegment(t, recs[:1]), encodeSegment(t, recs[1:])
	stream := append(bytes.Clone(one), two...)
	for name, r := range map[string]interface {
		Read([]byte) (int, error)
	}{"buffer": bytes.NewBuffer(stream), "one byte at a time": iotest.OneByteReader(bytes.NewReader(stream))} {
		first, err := DecodeSegment(r)
		if err != nil || !reflect.DeepEqual(first, recs[:1]) {
			t.Fatalf("%s: first segment: %v, %v", name, first, err)
		}
		second, err := DecodeSegment(r)
		if err != nil || !reflect.DeepEqual(second, recs[1:]) {
			t.Fatalf("%s: second segment: %v, %v", name, second, err)
		}
		if recs, err := DecodeSegment(r); err != io.EOF {
			t.Fatalf("%s: an exhausted stream read %v, %v; want io.EOF", name, recs, err)
		}
	}
	for n := 1; n < len(one); n++ {
		if _, err := DecodeSegment(bytes.NewReader(one[:n])); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("a segment cut to %d of %d bytes read %v", n, len(one), err)
		}
	}
}

// sinkLog is a ColdStore that keeps what it was handed.
type sinkLog struct{ payloads [][]byte }

func (s *sinkLog) WriteSegment(_ SegmentManifest, payload []byte) error {
	s.payloads = append(s.payloads, payload)
	return nil
}

// TestEvictionHasOneByteForm: an evicted segment is the bytes EncodeSegment
// gives for its own records, and evicting the same records again yields the
// same bytes.
func TestEvictionHasOneByteForm(t *testing.T) {
	sweep := func() []byte {
		st := New()
		cold := &sinkLog{}
		st.SetRetention(Retention{MaxRecords: 1, Cold: cold})
		for i := 0; i < 6; i++ {
			r := st.Acquire(netsim.FlowKey{Src: 1, Dst: 2, SrcPort: uint16(i), Proto: 6})
			r.Path = []netsim.NodeID{1, 2}
			r.Epochs = []simtime.EpochRange{{Lo: 1, Hi: 2}, {Lo: 2, Hi: 3}}
			for e := simtime.Epoch(0); e < 6; e++ {
				r.EpochBytes[e] = uint64(e) + 1
			}
			r.LastSeen = simtime.Time(i)
			st.Release(r)
		}
		if n, err := st.Maintain(100); err != nil || n != 5 {
			t.Fatalf("Maintain evicted %d, %v", n, err)
		}
		if len(cold.payloads) != 1 {
			t.Fatalf("cold store received %d segments", len(cold.payloads))
		}
		return cold.payloads[0]
	}
	seg := sweep()
	recs, err := flowrec.DecodeSegment(seg)
	if err != nil || len(recs) != 5 {
		t.Fatalf("evicted segment decodes to %d records: %v", len(recs), err)
	}
	if !bytes.Equal(seg, encodeSegment(t, recs)) {
		t.Fatal("the evicted segment is not EncodeSegment of its records")
	}
	if again := sweep(); !bytes.Equal(again, seg) {
		t.Fatal("evicting equal records twice gave different bytes")
	}
}

// FuzzDecodeSegment feeds DecodeSegment arbitrary bytes: it must return
// records or an error — never panic, never allocate out of proportion to the
// input — and whatever it accepts must survive an encode/decode round trip.
// flowrec.DecodeSegment accepts exactly what flowrectest's reference decoder
// accepts, and decodes the same records; so does flowrec.DecodeRecord, on
// every record encoding it is handed.
// flowrec.ScanSegment, with a keep drawn from the input, fails exactly when
// flowrec.DecodeSegment does, and otherwise hands out the whole decode
// filtered, as encodings flowrec.DecodeRecord turns back into its records,
// with every cursor accessor in fn answering as that record does. The
// validating walk, flowrec.ValidateSegment, accepts exactly what
// flowrec.DecodeSegment accepts, and at every record of a segment that
// decodes each cursor accessor equals the decoded record's field or method.
// The committed corpus (testdata/fuzz) holds a valid segment and forged
// counts; every truncation of a segment, a future version, a foreign magic,
// a record more than the header counts and a segment for each record rule
// Next checks, broken, are seeded here.
func FuzzDecodeSegment(f *testing.F) {
	valid := encodeSegment(f, fixtureRecords())
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	for _, off := range []int{4, 8, 12, 16} {
		forged := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(forged[off:], 1<<32-1)
		f.Add(forged)
	}
	future := bytes.Clone(valid)
	future[3]++
	f.Add(future)
	f.Add(append([]byte{0x0c, 0xff}, valid[2:]...)) // a gob stream opens with a small length
	uncounted := bytes.Clone(valid)
	uncounted[4]-- // the last record, which has no path or epochs, past the count
	f.Add(uncounted)
	for _, seg := range brokenRuleSegments() {
		f.Add(seg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := DecodeSegment(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A record is ~130 B in memory for ≥ 23 B on disk, and its map about
		// as much again; the constant covers the eagerly sized read buffer (the
		// race detector doubles it).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}

		// The predicate form: bit i of the input admits record i.
		admits := func(i int) bool {
			return len(data) > 0 && data[i%len(data)]>>(i/len(data)%8)&1 == 1
		}
		calls := 0
		var kept []*flowrec.Record
		n, keptErr := flowrec.ScanSegment(data, func(*flowrec.Cursor) bool { calls++; return admits(calls - 1) },
			func(c *flowrec.Cursor) {
				r, err := flowrec.DecodeRecord(c.Encoding())
				if want, ok := flowrectest.DecodeRecord(c.Encoding()); err != nil || !ok || !reflect.DeepEqual(r, want) {
					t.Fatalf("an admitted encoding decodes to %+v, %v; the reference gives %+v, %v", r, err, want, ok)
				}
				if diff := cursorMismatch(c, r); diff != "" {
					t.Fatalf("the cursor handed to fn at admitted record %d: %s", len(kept), diff)
				}
				kept = append(kept, r)
			})
		full, fullErr := flowrec.DecodeSegment(data)
		walked, walkErr := flowrec.ValidateSegment(data)
		ref, refErr := flowrectest.DecodeSegment(data)
		if (keptErr == nil) != (fullErr == nil) || (walkErr == nil) != (fullErr == nil) || (refErr == nil) != (fullErr == nil) {
			t.Fatalf("scan: %v; walk: %v; decode: %v; the reference decode: %v", keptErr, walkErr, fullErr, refErr)
		}
		if fullErr == nil && !reflect.DeepEqual(full, ref) {
			t.Fatalf("decoded %+v; the reference decodes %+v", full, ref)
		}
		if fullErr == nil {
			if walked != len(full) {
				t.Fatalf("the walk counted %d records, the decode %d", walked, len(full))
			}
			c := flowrec.NewCursor(data)
			for i := 0; c.Next(); i++ {
				if diff := cursorMismatch(&c, full[i]); diff != "" {
					t.Fatalf("cursor at record %d: %s", i, diff)
				}
			}
			if c.Err() != nil {
				t.Fatalf("the cursor stopped where the walk did not: %v", c.Err())
			}
			var want []*flowrec.Record
			for i, r := range full {
				if admits(i) {
					want = append(want, r)
				}
			}
			same := slices.EqualFunc(kept, want, func(a, b *flowrec.Record) bool { return reflect.DeepEqual(a, b) })
			if !same || n != len(full) || calls != len(full) {
				t.Fatalf("scan handed out %d records and counted %d (keep called %d times), want %d of %d", len(kept), n, calls, len(want), len(full))
			}
		}
		if err != nil {
			return
		}
		if len(recs) > len(data) {
			t.Fatalf("%d records out of %d bytes", len(recs), len(data))
		}
		again, err := flowrec.DecodeSegment(encodeSegment(t, recs))
		if err != nil {
			t.Fatalf("re-decoding an accepted segment: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("decode(encode(x)) != x:\n got %v\nwant %v", again, recs)
		}
	})
}

// brokenRuleSegments returns one-record segments, each with a header that
// matches it, whose record breaks one rule of flowrec.Cursor.Next: TagLink
// past 32 bits, a path entry past 32 bits, pairs in descending epoch order.
func brokenRuleSegments() [][]byte {
	// bare's varints are one byte each: TagIdx −1, then zeros, ending with
	// the path, epoch-range and pair counts.
	bare := flowrec.AppendRecord(nil, &flowrec.Record{TagIdx: -1})
	wide := binary.AppendUvarint(nil, 1<<32)
	const tagLink = 15 // past the 14-byte flow key and priority, and TagIdx
	segment := func(npath int, rec ...[]byte) []byte {
		b, _ := flowrec.AppendSegment(nil, nil) // a header that counts nothing
		b = append(b, slices.Concat(rec...)...)
		binary.LittleEndian.PutUint32(b[4:], 1)
		binary.LittleEndian.PutUint32(b[8:], uint32(npath))
		binary.LittleEndian.PutUint32(b[16:], uint32(len(b)-flowrec.SegmentHeaderLen))
		return b
	}
	return [][]byte{
		segment(0, bare[:tagLink], wide, bare[tagLink+1:]),
		segment(1, bare[:len(bare)-3], []byte{1}, wide, []byte{0, 0}),
		segment(0, bare[:len(bare)-1], []byte{3, 4, 1, 2, 1}), // epochs 2 then 1
	}
}

// cursorMismatch says how the record at c differs from r, its decode, or
// returns "": the fields, EpochsAt at every switch on r's path and one off
// it, and BytesIn over each epoch r counts, everything and nothing.
func cursorMismatch(c *flowrec.Cursor, r *flowrec.Record) string {
	if c.Flow() != r.Flow || c.Priority() != r.Priority || c.Bytes() != r.Bytes || c.TagLink() != r.TagLink {
		return fmt.Sprintf("flow %v priority %d bytes %d link %d; want %v %d %d %d",
			c.Flow(), c.Priority(), c.Bytes(), c.TagLink(), r.Flow, r.Priority, r.Bytes, r.TagLink)
	}
	if got, err := flowrec.DecodeRecord(c.Encoding()); err != nil || !reflect.DeepEqual(got, r) {
		return fmt.Sprintf("encoding decodes to %+v, %v", got, err)
	}
	for _, sw := range append([]netsim.NodeID{-1}, r.Path...) {
		er, ok := c.EpochsAt(sw)
		if wantER, wantOK := r.EpochsAt(sw); er != wantER || ok != wantOK {
			return fmt.Sprintf("EpochsAt(%d) = %v, %v; want %v, %v", sw, er, ok, wantER, wantOK)
		}
	}
	windows := []simtime.EpochRange{{Lo: math.MinInt64, Hi: math.MaxInt64}, {Lo: 1, Hi: 0}}
	for e := range r.EpochBytes {
		windows = append(windows, simtime.EpochRange{Lo: e, Hi: e})
	}
	for _, w := range windows {
		if got, want := c.BytesIn(w), r.BytesIn(w); got != want {
			return fmt.Sprintf("BytesIn(%v) = %d; want %d", w, got, want)
		}
	}
	return ""
}

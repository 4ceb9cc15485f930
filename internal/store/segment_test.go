package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"switchpointer/internal/flowrec"
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
// come off it one DecodeSegment at a time, whether or not the
// reader can hand out single bytes, and a cut anywhere is an error.
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
		if _, err := DecodeSegment(r); err == nil {
			t.Fatalf("%s: decoded a third segment from an exhausted stream", name)
		}
	}
	for n := 0; n < len(one); n++ {
		if _, err := DecodeSegment(bytes.NewReader(one[:n])); err == nil {
			t.Fatalf("a segment cut to %d of %d bytes decoded", n, len(one))
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
	recs, _, err := flowrec.DecodeSegment(seg, nil)
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
// flowrec.DecodeSegment, with a keep drawn from the input, must agree with
// the whole decode filtered.
// The committed corpus (testdata/fuzz) holds a valid segment and forged
// counts; every truncation of a segment, a future version and a foreign
// magic are seeded here.
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

		// The predicate form: bit i of the input admits record i. It fails
		// exactly when the whole decode fails, and otherwise returns the whole
		// decode filtered, with the same record count.
		admits := func(i int) bool {
			return len(data) > 0 && data[i%len(data)]>>(i/len(data)%8)&1 == 1
		}
		calls := 0
		kept, n, keptErr := flowrec.DecodeSegment(data, func(*flowrec.Record) bool { calls++; return admits(calls - 1) })
		full, fullN, fullErr := flowrec.DecodeSegment(data, nil)
		if (keptErr == nil) != (fullErr == nil) {
			t.Fatalf("with a keep: %v; without: %v", keptErr, fullErr)
		}
		if fullErr == nil {
			var want []*flowrec.Record
			for i, r := range full {
				if admits(i) {
					want = append(want, r)
				}
			}
			same := slices.EqualFunc(kept, want, func(a, b *flowrec.Record) bool { return reflect.DeepEqual(a, b) })
			if !same || n != len(full) || fullN != len(full) || calls != len(full) {
				t.Fatalf("kept %d of %d records (keep called %d times), want %d of %d", len(kept), n, calls, len(want), fullN)
			}
		}
		if err != nil {
			return
		}
		if len(recs) > len(data) {
			t.Fatalf("%d records out of %d bytes", len(recs), len(data))
		}
		again, _, err := flowrec.DecodeSegment(encodeSegment(t, recs), nil)
		if err != nil {
			t.Fatalf("re-decoding an accepted segment: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("decode(encode(x)) != x:\n got %v\nwant %v", again, recs)
		}
	})
}

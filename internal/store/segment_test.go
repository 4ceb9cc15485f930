package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// legacyFixture is a segment written by the parent commit's gob
// EncodeSegment (PR 11) from exactly legacyFixtureRecords — the one shape of
// input the gob fallback exists for.
const legacyFixture = "testdata/segment_pr11.gob"

func legacyFixtureRecords() []*flowrec.Record {
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

// TestLegacyGobSegmentDecodes: a segment written before the codec existed
// decodes, through either entry point, to the records the codec's own round
// trip gives — same values, same JSON.
func TestLegacyGobSegmentDecodes(t *testing.T) {
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if flowrec.HasSegmentMagic(raw) {
		t.Fatal("the fixture is not a legacy gob segment")
	}
	want := legacyFixtureRecords()
	wantJSON, _ := json.Marshal(want)
	viaCodec, err := DecodeSegmentBytes(encodeSegment(t, want))
	if err != nil {
		t.Fatal(err)
	}
	viaReader, err := DecodeSegment(iotest.OneByteReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	viaBytes, err := DecodeSegmentBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]*flowrec.Record{"codec": viaCodec, "gob reader": viaReader, "gob bytes": viaBytes} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %v, want %v", name, got, want)
		}
		if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: JSON %s, want %s", name, gotJSON, wantJSON)
		}
	}
}

// TestDecodeSegmentIsSelfDelimiting: segments concatenated on one stream (an
// eviction Sink) come off it one DecodeSegment at a time, whether or not the
// reader can hand out single bytes, and a cut anywhere is an error.
func TestDecodeSegmentIsSelfDelimiting(t *testing.T) {
	recs := legacyFixtureRecords()
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

// TestEvictionHasOneByteForm: whichever sink receives an evicted segment, it
// receives the same bytes, and evicting the same records again yields them
// again.
func TestEvictionHasOneByteForm(t *testing.T) {
	sweep := func() ([]byte, []byte) {
		st := New()
		var sink bytes.Buffer
		cold := &sinkLog{}
		st.SetRetention(Retention{MaxRecords: 1, Sink: &sink, Cold: cold})
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
		return sink.Bytes(), cold.payloads[0]
	}
	sink, cold := sweep()
	if !flowrec.HasSegmentMagic(sink) || !bytes.Equal(sink, cold) {
		t.Fatal("Sink and Cold received different bytes for one eviction")
	}
	if again, _ := sweep(); !bytes.Equal(again, sink) {
		t.Fatal("evicting equal records twice gave different bytes")
	}
}

// FuzzDecodeSegment feeds DecodeSegment arbitrary bytes: it must return
// records or an error — never panic, never allocate out of proportion to the
// input — and whatever it accepts must survive an encode/decode round trip.
// The committed corpus (testdata/fuzz) holds a valid segment, forged counts
// and the legacy gob fixture; every truncation of a segment is seeded here.
func FuzzDecodeSegment(f *testing.F) {
	valid := encodeSegment(f, legacyFixtureRecords())
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	for _, off := range []int{4, 8, 12, 16} {
		forged := bytes.Clone(valid)
		binary.LittleEndian.PutUint32(forged[off:], 1<<32-1)
		f.Add(forged)
	}
	if legacy, err := os.ReadFile(legacyFixture); err == nil {
		f.Add(legacy)
		f.Add(legacy[:len(legacy)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := DecodeSegment(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A record is ~130 B in memory for ≥ 23 B on disk, and its map about
		// as much again; the constant covers the eagerly sized read buffer (the
		// race detector doubles it).
		if grew := after.TotalAlloc - before.TotalAlloc; flowrec.HasSegmentMagic(data) && grew > 1<<18+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if len(recs) > len(data) {
			t.Fatalf("%d records out of %d bytes", len(recs), len(data))
		}
		again, err := DecodeSegmentBytes(encodeSegment(t, recs))
		if err != nil {
			t.Fatalf("re-decoding an accepted segment: %v", err)
		}
		// (A gob stream may carry an empty slice where the codec gives nil.)
		if flowrec.HasSegmentMagic(data) && !reflect.DeepEqual(again, recs) {
			t.Fatalf("decode(encode(x)) != x:\n got %v\nwant %v", again, recs)
		}
	})
}

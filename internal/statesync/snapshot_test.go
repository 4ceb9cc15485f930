package statesync

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// TestSnapshotBodyIsShardSegments: a host /snapshot body is the store's
// SnapshotShards segments back to back, byte for byte, with no framing of
// its own.
func TestSnapshotBodyIsShardSegments(t *testing.T) {
	tb := redLights(t)
	ag := tb.HostAgents[richestAgentIP(tb)]
	for port := uint16(1); port <= 64; port++ { // enough flows to fill several shards
		ag.Store.Put(coldRecord(port, simtime.Time(port), simtime.Epoch(port%16), simtime.Epoch(port%16+1)))
	}
	srv := httptest.NewServer(HostSnapshotHandler(ag))
	defer srv.Close()
	var want []byte
	segs := 0
	if err := ag.Store.SnapshotShards(func(seg []byte) error {
		want = append(want, seg...)
		segs++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Content-Type") != SegmentsContentType || segs < 2 || !bytes.Equal(got, want) {
		t.Fatalf("snapshot: %d bytes (%s), want the %d bytes of %d shard segments", len(got), resp.Header.Get("Content-Type"), len(want), segs)
	}
}

// bareHeader is a segment header, with nothing behind it, that declares a
// segment of total bytes.
func bareHeader(total int) []byte {
	hdr, _ := flowrec.AppendSegment(nil, nil)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(total-flowrec.SegmentHeaderLen))
	return hdr
}

// twoSegmentBody is a valid snapshot body of two segments.
func twoSegmentBody(t testing.TB) []byte {
	t.Helper()
	a, b := coldRecord(1, 5, 1, 3), coldRecord(2, 9, 2, 4)
	b.Path, b.Epochs = []netsim.NodeID{1, 2}, []simtime.EpochRange{{Lo: 2, Hi: 4}, {Lo: 3, Hi: 3}}
	b.AddEpochBytes(3, 1500)
	var body []byte
	for _, recs := range [][]*flowrec.Record{{a}, {a, b}} {
		var err error
		if body, err = flowrec.AppendSegment(body, recs); err != nil {
			t.Fatal(err)
		}
	}
	return body
}

// reencode reads body with ReadSegments and encodes each decoded segment
// again, back to back, returning that body, every record read, and
// ReadSegments' error.
func reencode(t testing.TB, body []byte) ([]byte, []*flowrec.Record, error) {
	t.Helper()
	var out []byte
	var all []*flowrec.Record
	_, records, err := ReadSegments(bytes.NewReader(body), func(recs []*flowrec.Record) error {
		var err error
		if out, err = flowrec.AppendSegment(out, recs); err != nil {
			t.Fatalf("re-encoding a decoded segment: %v", err)
		}
		all = append(all, recs...)
		return nil
	})
	if records != len(all) {
		t.Fatalf("ReadSegments counted %d records and handed out %d", records, len(all))
	}
	return out, all, err
}

// FuzzReadSegments feeds ReadSegments arbitrary snapshot bodies: it must
// hand out records or return an error — never panic, never allocate out of
// proportion to the input, whatever length a segment header declares — and
// whatever it decodes re-encodes to the same bytes. (An accepted varint may
// arrive longer than the encoder writes it, so the claim is made of the
// re-encoded body: it reads back to the same records and re-encodes to
// itself.) The committed corpus (testdata/fuzz) holds a valid two-segment
// body, cuts of it, a bare header declaring store.MaxSegmentBytes and one
// declaring a byte more; every truncation, and the cases only a segment
// header frames, are seeded here.
func FuzzReadSegments(f *testing.F) {
	valid := twoSegmentBody(f)
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(bareHeader(store.MaxSegmentBytes))
	f.Add(bareHeader(store.MaxSegmentBytes + 1))
	// What only a header frames: empty segments, a declared byte that never
	// arrives, a 4 GiB declaration, a foreign or future second segment, a
	// stray byte after the last one, and a 64 MiB declaration cut short.
	empty := bareHeader(flowrec.SegmentHeaderLen)
	first, _ := flowrec.SegmentLen(valid)
	foreign, future := bytes.Clone(valid), bytes.Clone(valid)
	foreign[first] = 0x22
	future[first+3]++
	for _, body := range [][]byte{
		empty, append(bytes.Clone(empty), empty...), bareHeader(flowrec.SegmentHeaderLen + 1),
		bareHeader(1<<32 - 1), foreign, future, append(bytes.Clone(valid), 0),
		append(bareHeader(store.MaxSegmentBytes), valid...),
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encoded, recs, err := reencode(t, body)
		runtime.ReadMemStats(&after)
		// A record is ~130 B in memory for ≥ 23 B on the wire, and its map
		// about as much again; the constant covers a read buffer sized on the
		// declared length up to 64 KiB, and the re-encoding (the race
		// detector doubles both).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+64*uint64(len(body)) {
			t.Fatalf("reading %d bytes allocated %d", len(body), grew)
		}
		if err == nil && bytes.Equal(body, valid) && !bytes.Equal(encoded, body) {
			t.Fatalf("a valid body re-encoded to other bytes:\n got %x\nwant %x", encoded, body)
		}
		again, recsAgain, err := reencode(t, encoded)
		if err != nil {
			t.Fatalf("reading a re-encoded body: %v", err)
		}
		if !bytes.Equal(again, encoded) || !reflect.DeepEqual(recsAgain, recs) {
			t.Fatalf("re-encoding is not a fixpoint:\n got %x\nwant %x", again, encoded)
		}
	})
}

// failingLog is a ColdStore whose disk is full.
type failingLog struct{}

func (failingLog) WriteSegment(store.SegmentManifest, []byte) error {
	return errors.New("disk full")
}

// TestFailedEvictionKeepsRecords: a sweep whose segment write fails evicts
// nothing — the store keeps every record, counts no eviction, and its
// /headers-batch answers are byte-identical — and the next sweep, against a
// working log, evicts those records, which then answer from the log.
func TestFailedEvictionKeepsRecords(t *testing.T) {
	tb := redLights(t)
	ag := tb.HostAgents[richestAgentIP(tb)]
	for port := uint16(1); port <= 4; port++ { // Put records at switch 1 beside the absorbed ones
		ag.Store.Put(coldRecord(port, simtime.Time(port), 1, 3))
	}
	resident := ag.Store.Len()
	if resident < 5 {
		t.Fatalf("%d records to evict", resident)
	}
	qs := []hostagent.HeadersQuery{{Switch: 1, Epochs: simtime.EpochRange{Lo: 0, Hi: 1000}}}
	for _, sw := range tb.Topo.Switches() {
		qs = append(qs, hostagent.HeadersQuery{Switch: sw.NodeID(), Epochs: simtime.EpochRange{Lo: 0, Hi: 1000}})
	}
	answers := func() []byte {
		answers, _, err := ag.AnswerHeaders(context.Background(), qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var segs []byte
		for _, ans := range answers {
			segs = append(segs, ans.Segment...)
		}
		return segs
	}
	before := answers()

	ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: tb.Opt.Alpha, Cold: failingLog{}})
	if n, err := ag.Store.Maintain(1 << 40); err == nil || n != 0 {
		t.Fatalf("a sweep into a full disk evicted %d, err %v", n, err)
	}
	if ag.Store.Len() != resident || ag.Store.Evicted() != 0 {
		t.Fatalf("after a failed write: %d resident of %d, %d counted evicted", ag.Store.Len(), resident, ag.Store.Evicted())
	}
	if !bytes.Equal(answers(), before) {
		t.Fatal("a failed eviction changed the store's answers")
	}

	seglog, err := NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: tb.Opt.Alpha, Cold: seglog})
	ag.SetColdReader(seglog)
	if n, err := ag.Store.Maintain(1 << 40); err != nil || n != resident {
		t.Fatalf("the retry evicted %d of %d: %v", n, resident, err)
	}
	if ag.Store.Len() != 0 || ag.Store.Evicted() != uint64(resident) || seglog.Len() != 1 {
		t.Fatalf("after the retry: %d resident, %d evicted, %d segments", ag.Store.Len(), ag.Store.Evicted(), seglog.Len())
	}
	if !bytes.Equal(answers(), before) {
		t.Fatal("the evicted records answer differently from the log")
	}
}

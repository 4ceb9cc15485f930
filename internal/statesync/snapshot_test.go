package statesync

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// windowFlow keys the records of TestWindowedSnapshot by port.
func windowFlow(port uint16) netsim.FlowKey {
	return netsim.FlowKey{Src: netsim.IP(10, 0, 0, 7), Dst: netsim.IP(10, 1, 0, byte(port)), SrcPort: port, DstPort: 80, Proto: netsim.ProtoTCP}
}

// TestWindowedSnapshot pulls a partial epoch window from a store that mixes
// live and Put records around its edges: the pull holds exactly the records
// MatchesEpochs admits — one straddling Lo, one touching Lo from below, one
// touching Hi, one with a second range inside — and each segment lists its
// records in flow-key order.
func TestWindowedSnapshot(t *testing.T) {
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ag = s.Testbed.HostAgents[richestAgentIP(s.Testbed)]
	if ag.Store.Len() != 0 {
		t.Fatalf("an unplayed testbed's store holds %d records", ag.Store.Len())
	}
	window := simtime.EpochRange{Lo: 10, Hi: 20}
	for port, c := range []struct {
		epochs []simtime.EpochRange
		live   bool
	}{
		{[]simtime.EpochRange{{Lo: 8, Hi: 12}, {Lo: 9, Hi: 9}}, true},  // straddles Lo
		{[]simtime.EpochRange{{Lo: 5, Hi: 10}, {Lo: 4, Hi: 4}}, false}, // touches Lo
		{[]simtime.EpochRange{{Lo: 20, Hi: 24}, {Lo: 21, Hi: 21}}, false},
		{[]simtime.EpochRange{{Lo: 0, Hi: 1}, {Lo: 15, Hi: 15}}, true},
		{[]simtime.EpochRange{{Lo: 21, Hi: 30}, {Lo: 25, Hi: 25}}, true}, // past Hi
		{[]simtime.EpochRange{{Lo: 2, Hi: 9}, {Lo: 3, Hi: 3}}, false},    // before Lo
		{[]simtime.EpochRange{{Lo: 21, Hi: 22}, {Lo: 0, Hi: 9}}, false},  // around it
	} {
		flow := windowFlow(uint16(port))
		rec := flowrec.New(flow)
		if c.live {
			rec = ag.Store.Acquire(flow)
		}
		rec.Path = []netsim.NodeID{3, 4}
		rec.Epochs = c.epochs
		rec.Pkts, rec.Bytes, rec.LastSeen = 1, 100*uint64(port+1), simtime.Time(port)
		if c.live {
			ag.Store.Release(rec)
		} else {
			ag.Store.Put(rec)
		}
	}
	srv := httptest.NewServer(HostSnapshotHandler(ag))
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("%s?lo=%d&hi=%d", srv.URL, window.Lo, window.Hi))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pulled []*flowrec.Record
	if _, _, err := ReadSegments(resp.Body, func(recs []*flowrec.Record) error {
		if !slices.IsSortedFunc(recs, func(a, b *flowrec.Record) int { return flowrec.Compare(a.Flow, b.Flow) }) {
			t.Error("a snapshot segment is not in flow-key order")
		}
		pulled = append(pulled, recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	flowrec.SortRecords(pulled)

	var admitted []*flowrec.Record
	for _, r := range allRecords(t, ag.Store) {
		if store.MatchesEpochs(r, window) {
			admitted = append(admitted, r)
		}
	}
	got, _ := json.Marshal(pulled)
	want, _ := json.Marshal(admitted)
	if !bytes.Equal(got, want) {
		t.Fatalf("windowed pull diverged from MatchesEpochs\n--- pulled ---\n%s\n--- admitted ---\n%s", got, want)
	}
	var flows []netsim.FlowKey
	for _, r := range pulled {
		flows = append(flows, r.Flow)
	}
	if wantFlows := []netsim.FlowKey{windowFlow(0), windowFlow(1), windowFlow(2), windowFlow(3)}; !slices.Equal(flows, wantFlows) {
		t.Fatalf("window [%d,%d] pulled flows %v, want %v", window.Lo, window.Hi, flows, wantFlows)
	}
}

// frame appends one snapshot frame holding seg to body.
func frame(body, seg []byte) []byte {
	return append(binary.BigEndian.AppendUint32(body, uint32(len(seg))), seg...)
}

// twoFrameBody is a valid snapshot body of two frames.
func twoFrameBody(t testing.TB) []byte {
	t.Helper()
	a, b := coldRecord(1, 5, 1, 3), coldRecord(2, 9, 2, 4)
	b.Path, b.Epochs = []netsim.NodeID{1, 2}, []simtime.EpochRange{{Lo: 2, Hi: 4}, {Lo: 3, Hi: 3}}
	b.AddEpochBytes(3, 1500)
	var body []byte
	for _, recs := range [][]*flowrec.Record{{a}, {a, b}} {
		seg, err := flowrec.AppendSegment(nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		body = frame(body, seg)
	}
	return body
}

// reframe reads body with ReadSegments and frames each decoded segment again
// as AppendSegment writes it, returning the frames, every record read, and
// ReadSegments' error.
func reframe(t testing.TB, body []byte) ([]byte, []*flowrec.Record, error) {
	t.Helper()
	var out []byte
	var all []*flowrec.Record
	_, records, err := ReadSegments(bytes.NewReader(body), func(recs []*flowrec.Record) error {
		seg, err := flowrec.AppendSegment(nil, recs)
		if err != nil {
			t.Fatalf("re-encoding a decoded segment: %v", err)
		}
		out, all = frame(out, seg), append(all, recs...)
		return nil
	})
	if records != len(all) {
		t.Fatalf("ReadSegments counted %d records and handed out %d", records, len(all))
	}
	return out, all, err
}

// FuzzReadSegments feeds ReadSegments arbitrary snapshot bodies: it must
// hand out records or return an error — never panic, never allocate out of
// proportion to the input, whatever length a frame declares — and whatever
// it decodes re-frames to the same bytes. (An accepted varint may arrive
// longer than the encoder writes it, so the claim is made of the re-framed
// body: it reads back to the same records and re-frames to itself.) The
// committed corpus (testdata/fuzz) holds a valid two-frame body, cuts of it
// and an oversized declared length; every truncation is seeded here.
func FuzzReadSegments(f *testing.F) {
	valid := twoFrameBody(f)
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameBytes))
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameBytes+1))
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		framed, recs, err := reframe(t, body)
		runtime.ReadMemStats(&after)
		// A record is ~130 B in memory for ≥ 23 B on the wire, and its map
		// about as much again; the constant covers a frame buffer sized on the
		// declared length up to 64 KiB, and the re-framing (the race detector
		// doubles both).
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<18+64*uint64(len(body)) {
			t.Fatalf("reading %d bytes allocated %d", len(body), grew)
		}
		if err == nil && bytes.Equal(body, valid) && !bytes.Equal(framed, body) {
			t.Fatalf("a valid body re-framed to other bytes:\n got %x\nwant %x", framed, body)
		}
		again, recsAgain, err := reframe(t, framed)
		if err != nil {
			t.Fatalf("reading a re-framed body: %v", err)
		}
		if !bytes.Equal(again, framed) || !reflect.DeepEqual(recsAgain, recs) {
			t.Fatalf("re-framing is not a fixpoint:\n got %x\nwant %x", again, framed)
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
		_, segs, err := ag.AnswerHeaders(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(segs, nil)
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

	seglog, err := NewSegmentLog("")
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

package statesync

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"switchpointer/internal/buildinfo"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// redLights builds and plays the red-lights scenario — a small testbed
// whose host stores end up with real multi-switch records.
func redLights(t *testing.T) *scenario.Testbed {
	t.Helper()
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Testbed.Run(30 * simtime.Millisecond)
	return s.Testbed
}

// allRecords collects every record of st through SnapshotShards, in
// flow-key order.
func allRecords(t testing.TB, st *store.RecordStore) []*flowrec.Record {
	t.Helper()
	var all []*flowrec.Record
	if err := st.SnapshotShards(func(seg []byte) error {
		recs, err := flowrec.DecodeSegment(seg)
		all = append(all, recs...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	flowrec.SortRecords(all)
	return all
}

// manifests copies every segment's manifest in log order, read through a
// View as the query paths read them.
// answerRecords decodes an answer's segment into the records it carries, nil
// when none.
func answerRecords(t testing.TB, ans hostagent.HeadersAnswer) []*flowrec.Record {
	t.Helper()
	recs, err := flowrec.DecodeSegment(ans.Segment)
	if err != nil {
		t.Fatalf("answer segment: %v", err)
	}
	if len(recs) == 0 {
		return nil
	}
	return recs
}

func manifests(l *SegmentLog) []store.SegmentManifest {
	v := l.View()
	defer v.Close()
	out := make([]store.SegmentManifest, v.Len())
	for i := range out {
		out[i] = *v.Manifest(i)
	}
	return out
}

// storeJSON canonicalizes a store's full record set for comparison.
func storeJSON(t *testing.T, st *store.RecordStore) string {
	t.Helper()
	raw, err := json.Marshal(allRecords(t, st))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// richestAgentIP returns the host holding the most records — the
// interesting bootstrap subject.
func richestAgentIP(tb *scenario.Testbed) netsim.IPv4 {
	var best netsim.IPv4
	n := -1
	for ip, ag := range tb.HostAgents {
		if l := ag.Store.Len(); l > n || (l == n && ip < best) {
			best, n = ip, l
		}
	}
	return best
}

// TestSegmentLogModes: the log has one storage mode, a directory. An empty
// dir is refused; a directory log reads back what it wrote, and reopening
// the directory resumes it.
func TestSegmentLogModes(t *testing.T) {
	if l, err := NewSegmentLog(""); err == nil || l != nil {
		t.Fatalf(`NewSegmentLog(t.TempDir()) = %v, %v; want an error`, l, err)
	}
	tb := redLights(t)
	recs := allRecords(t, tb.HostAgents[richestAgentIP(tb)].Store)
	if len(recs) == 0 {
		t.Fatal("scenario produced no records")
	}
	var buf strings.Builder
	if err := store.EncodeSegment(&buf, recs); err != nil {
		t.Fatal(err)
	}
	payload := []byte(buf.String())
	manifest := store.SegmentManifest{Epochs: simtime.EpochRange{Lo: 0, Hi: 10}, Flows: len(recs), Bytes: len(payload)}

	log, err := NewSegmentLog(filepath.Join(t.TempDir(), "cold"))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.WriteSegment(manifest, payload); err != nil {
		t.Fatal(err)
	}
	if err := log.WriteSegment(manifest, payload); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Fatalf("Len = %d, want 2", log.Len())
	}
	ms := manifests(log)
	if len(ms) != 2 || ms[0].Epochs != manifest.Epochs || ms[0].Flows != manifest.Flows || ms[0].Bytes != manifest.Bytes {
		t.Fatalf("manifests = %+v", ms)
	}
	if err := log.ReadSegment(7, func(*flowrec.Record) {}); err == nil {
		t.Fatal("out-of-range ReadSegment succeeded")
	}

	// Reopening the directory resumes the persisted log.
	reopened, err := NewSegmentLog(log.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", reopened.Len())
	}
	for i, l := range []*SegmentLog{log, reopened} {
		got := 0
		if err := l.ReadSegment(1, func(r *flowrec.Record) { got++ }); err != nil {
			t.Fatal(err)
		}
		if got != len(recs) {
			t.Fatalf("log %d: ReadSegment decoded %d records, want %d", i, got, len(recs))
		}
	}
}

func TestReadinessHealthz(t *testing.T) {
	rd := NewReadiness(false)
	if rd.Live() || rd.State().String() != "syncing" {
		t.Fatalf("fresh readiness = %v", rd.State())
	}
	rd.AddBootstrap(3, 17)

	srv := httptest.NewServer(HealthzHandler(rd, func() (int, int) { return 42, 2 }))
	defer srv.Close()

	fetch := func() Health {
		t.Helper()
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := fetch()
	want := Health{State: "syncing", ResidentRecords: 42, EvictedSegments: 2,
		BootstrapSegments: 3, BootstrapRecords: 17,
		Build: BuildInfo{Version: buildinfo.Version, GoVersion: buildinfo.Go()}}
	if h != want {
		t.Fatalf("healthz = %+v, want %+v", h, want)
	}

	rd.SetLive()
	if h := fetch(); h.State != "live" {
		t.Fatalf("state after SetLive = %q", h.State)
	}

	// A nil readiness (daemon that never bootstraps) reports permanently
	// live; nil stats report zero counts.
	srv2 := httptest.NewServer(HealthzHandler(nil, nil))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h2 Health
	if err := json.NewDecoder(resp.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.State != "live" || h2.ResidentRecords != 0 {
		t.Fatalf("nil-readiness healthz = %+v", h2)
	}
}

// TestSnapshotBootstrapRoundTrip pulls a live agent's snapshot over HTTP
// into a fresh store and asserts the record sets are byte-identical.
func TestSnapshotBootstrapRoundTrip(t *testing.T) {
	tb := redLights(t)
	ag := tb.HostAgents[richestAgentIP(tb)]
	srv := httptest.NewServer(HostSnapshotHandler(ag))
	defer srv.Close()

	rd := NewReadiness(false)
	b := &Bootstrapper{Readiness: rd}
	dst := store.New()
	segs, recs, err := b.BootstrapStore(context.Background(), srv.URL, dst)
	if err != nil {
		t.Fatal(err)
	}
	if recs != ag.Store.Len() || recs == 0 {
		t.Fatalf("bootstrapped %d records, source holds %d", recs, ag.Store.Len())
	}
	if segs == 0 {
		t.Fatal("no segments streamed")
	}
	if got, want := storeJSON(t, dst), storeJSON(t, ag.Store); got != want {
		t.Fatalf("bootstrapped store diverged\n--- source ---\n%s\n--- bootstrapped ---\n%s", want, got)
	}
	if rd.bootRecords.Load() != int64(recs) {
		t.Fatalf("readiness accounted %d records, want %d", rd.bootRecords.Load(), recs)
	}

	// The by-switch index must be rebuilt by Put: same answers per switch.
	for _, sw := range tb.Topo.Switches() {
		if got, want := members(dst, sw.NodeID()), members(ag.Store, sw.NodeID()); got != want {
			t.Fatalf("switch %v: bootstrapped index holds %d records, source %d", sw.NodeID(), got, want)
		}
	}
}

// members counts st's records with an epoch range at sw.
func members(st *store.RecordStore, sw netsim.NodeID) int {
	n := 0
	st.QueryWindow(sw, store.EveryEpoch, func(*flowrec.Record) { n++ })
	return n
}

// TestColdReadBackHostQuery evicts a live store wholesale into a SegmentLog
// and asserts QueryHeadersMulti transparently recovers the evicted records —
// byte-identical to the pre-eviction answer — while reporting the cold
// accounting, and that non-overlapping segments are skipped undecoded.
func TestColdReadBackHostQuery(t *testing.T) {
	tb := redLights(t)
	ip := richestAgentIP(tb)
	ag := tb.HostAgents[ip]

	var subject netsim.NodeID
	for _, s := range tb.Topo.Switches() {
		if members(ag.Store, s.NodeID()) > 0 {
			subject = s.NodeID()
			break
		}
	}
	window := simtime.EpochRange{Lo: 0, Hi: 1000}

	hot := ag.QueryHeadersMulti(context.Background(), []hostagent.HeadersQuery{{Switch: subject, Epochs: window}})[0]
	if len(answerRecords(t, hot)) == 0 {
		t.Fatal("no hot records to evict")
	}
	if hot.ColdSegments != 0 || hot.ColdRecords != 0 {
		t.Fatalf("hot answer carries cold accounting: %+v", hot)
	}
	hotJSON, _ := json.Marshal(answerRecords(t, hot))

	// Evict everything into an indexed segment log.
	seglog, err := NewSegmentLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ag.Store.SetRetention(store.Retention{HotEpochs: 1, Alpha: tb.Opt.Alpha, Cold: seglog})
	evicted, err := ag.Store.Maintain(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if evicted == 0 || ag.Store.Len() != 0 {
		t.Fatalf("eviction left %d resident (evicted %d)", ag.Store.Len(), evicted)
	}
	ag.SetColdReader(seglog)

	cold := ag.QueryHeadersMulti(context.Background(), []hostagent.HeadersQuery{{Switch: subject, Epochs: window}})[0]
	coldJSON, _ := json.Marshal(answerRecords(t, cold))
	if string(coldJSON) != string(hotJSON) {
		t.Fatalf("cold read-back diverged\n--- hot ---\n%s\n--- cold ---\n%s", hotJSON, coldJSON)
	}
	if cold.ColdSegments == 0 || cold.ColdRecords == 0 {
		t.Fatalf("cold answer carries no cold accounting: segments=%d records=%d", cold.ColdSegments, cold.ColdRecords)
	}

	// A window no manifest overlaps is answered without decoding anything.
	miss := ag.QueryHeadersMulti(context.Background(), []hostagent.HeadersQuery{{Switch: subject, Epochs: simtime.EpochRange{Lo: 500000, Hi: 500001}}})[0]
	if len(answerRecords(t, miss)) != 0 || miss.ColdSegments != 0 {
		t.Fatalf("manifest skip failed: %+v", miss)
	}
}

package trace

import (
	"io"
	"net/http/httptest"
	"strconv"
	"testing"

	"switchpointer/internal/simtime"
)

func TestNewIDDeterministic(t *testing.T) {
	a := NewID("contention", "flow", "42")
	b := NewID("contention", "flow", "42")
	if a != b {
		t.Fatalf("same parts, different IDs: %s vs %s", a, b)
	}
	if c := NewID("contention", "flow42"); c == a {
		t.Fatalf("part boundaries not separated: %s", c)
	}
	if len(a) != len("sp-")+16 {
		t.Fatalf("unexpected ID shape: %q", a)
	}
}

func TestCanonicalOrderAndDedup(t *testing.T) {
	tr := Trace{ID: "x", Spans: []Span{
		{ID: "10", Start: 5},
		{ID: "2", Start: 5},
		{ID: "0", Start: 0, Wall: 99},
		{ID: "2", Start: 7, Name: "dup-loses"},
	}}
	c := tr.Canonical()
	if len(c.Spans) != 3 {
		t.Fatalf("dedup failed: %d spans", len(c.Spans))
	}
	// (Start, ID) order with ordinal IDs comparing numerically: 0, 2, 10.
	want := []string{"0", "2", "10"}
	for i, s := range c.Spans {
		if s.ID != want[i] {
			t.Fatalf("span %d: got ID %s, want %s", i, s.ID, want[i])
		}
	}
	if c.Spans[1].Name == "dup-loses" {
		t.Fatal("dedup kept the later span")
	}
	if c.Spans[0].Wall != 0 {
		t.Fatal("Canonical did not strip Wall")
	}
	if tr.Spans[2].Wall != 99 {
		t.Fatal("Canonical mutated the source trace")
	}
}

func TestRecorderPhasesAndFinish(t *testing.T) {
	rec := NewRecorder("sp-1", "analyzer", "contention")
	rec.Anchor(100)
	rec.Anchor(999) // ignored: only the first anchor takes effect
	if got := rec.NextPhaseID(); got != "1" {
		t.Fatalf("NextPhaseID before phases: %s", got)
	}
	rec.Phase("detection", 100, 150)
	rec.AnnotateLast(Attr{Key: "k", Value: "v"})
	rec.Phase("alert", 150, 200)
	if got := rec.NextPhaseID(); got != "3" {
		t.Fatalf("NextPhaseID after two phases: %s", got)
	}
	rec.Record(Span{ID: "adm", Parent: "0", Name: "queue-wait", Start: 100, End: 100, Wall: 55})
	rec.Finish(200)
	rec.Finish(300) // ignored

	tr := rec.Trace()
	if tr.ID != "sp-1" {
		t.Fatalf("trace ID: %s", tr.ID)
	}
	byID := map[string]Span{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	root := byID["0"]
	if root.Start != 100 || root.End != 200 {
		t.Fatalf("root span [%d,%d], want [100,200]", root.Start, root.End)
	}
	if byID["1"].Name != "detection" || byID["2"].Name != "alert" {
		t.Fatalf("phase ordinals wrong: %+v", tr.Spans)
	}
	if len(byID["1"].Attrs) != 1 || byID["1"].Attrs[0].Key != "k" {
		t.Fatalf("AnnotateLast missed: %+v", byID["1"])
	}
	if byID["adm"].Wall != 55 {
		t.Fatal("Record dropped the adm span")
	}
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Fatalf("span %s ends before it starts", s.ID)
		}
	}
}

func TestRemoteContextHeaderRoundTrip(t *testing.T) {
	rc := RemoteContext{TraceID: "sp-abc", Parent: "4", At: simtime.Time(123456789)}
	got, ok := ParseRemote(rc.Encode())
	if !ok || got != rc {
		t.Fatalf("round trip: %+v ok=%v", got, ok)
	}
	if _, ok := ParseRemote(""); ok {
		t.Fatal("empty header parsed")
	}
	if _, ok := ParseRemote(";;12"); ok {
		t.Fatal("empty trace ID parsed")
	}
	if _, ok := ParseRemote("sp-x;1;notanumber"); ok {
		t.Fatal("bad timestamp parsed")
	}
}

func TestFlightRecorderMergeAndEvict(t *testing.T) {
	fr := NewFlightRecorder("host", 2)
	fr.Record("t1", Span{ID: "0", Name: "first"})
	fr.Record("t1", Span{ID: "0", Name: "dup"}, Span{ID: "1"})
	fr.Record("t2", Span{ID: "0"})
	fr.Record("t3", Span{ID: "0"}) // evicts t1

	if _, ok := fr.Get("t1"); ok {
		t.Fatal("t1 not evicted")
	}
	if got := fr.List(); len(got) != 2 || got[0] != "t2" || got[1] != "t3" {
		t.Fatalf("List: %v", got)
	}
	fr.Record("t1", Span{ID: "0", Name: "again"}) // re-admitted, evicts t2
	tr, ok := fr.Get("t1")
	if !ok || len(tr.Spans) != 1 || tr.Spans[0].Name != "again" {
		t.Fatalf("re-admitted t1: %+v ok=%v", tr, ok)
	}
}

// TestFlightRecordDoesNotRescanTrace: merging into a trace costs the spans
// being merged, not the ones it holds — a query-derived trace ID lands every
// child span of a 96-host fan-out in one trace, one Record call each.
func TestFlightRecordDoesNotRescanTrace(t *testing.T) {
	fr := NewFlightRecorder("host", 2)
	for i := 0; i < 1000; i++ {
		fr.Record("t1", Span{ID: strconv.Itoa(i)})
	}
	dup := Span{ID: "500", Name: "dup"}
	if allocs := testing.AllocsPerRun(100, func() { fr.Record("t1", dup) }); allocs != 0 {
		t.Fatalf("Record of a known span into a 1000-span trace: %v allocs, want 0", allocs)
	}
	if tr, _ := fr.Get("t1"); len(tr.Spans) != 1000 {
		t.Fatalf("trace holds %d spans, want 1000", len(tr.Spans))
	}
}

func TestFlightHandlerDoubleFetchByteIdentical(t *testing.T) {
	fr := NewFlightRecorder("analyzer", 0)
	fr.SetPeers(map[string]string{"hosts": "http://h", "switches": "http://s"})
	fr.Record("t1", Span{ID: "0", Name: "root", Start: 1, End: 9}, Span{ID: "1", Parent: "0", Start: 2, End: 3})
	srv := httptest.NewServer(fr.Handler())
	defer srv.Close()

	fetch := func(path string, wantCode int) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	idx1 := fetch("/", 200)
	idx2 := fetch("/", 200)
	if idx1 != idx2 {
		t.Fatalf("index double fetch differs:\n%s\n%s", idx1, idx2)
	}
	tr1 := fetch("/t1", 200)
	tr2 := fetch("/t1", 200)
	if tr1 != tr2 {
		t.Fatalf("trace double fetch differs:\n%s\n%s", tr1, tr2)
	}
	fetch("/nope", 404)
}

package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/statesync"
	"switchpointer/internal/trace"
)

// cutRunner is a diagnosis cut short: a partial report together with the
// error that cut it.
type cutRunner struct{}

func (cutRunner) Run(context.Context, analyzer.Query) (*analyzer.Report, error) {
	return &analyzer.Report{Kind: analyzer.KindInconclusive, Clock: rpc.NewClock(rpc.CostModel{}, 0)}, context.Canceled
}

// TestEndpointContract pins what rpc.Endpoint and rpc.HTTPClient.Call
// promise, on every route of the three roles a Loopback serves: the method
// is checked, a malformed or oversized body is the caller's fault (400), a
// handler's own validation failures are too, admission outcomes carry their
// status to the client as a typed *rpc.StatusError, and a traced request to
// an agent route leaves exactly one child span with the deterministic ID.
func TestEndpointContract(t *testing.T) {
	s, err := BuildScenarioOpt("redlights", 0, 0, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	defer s.Testbed.Close()
	lb, err := NewLoopback(s.Testbed, AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	ip, sw := s.Testbed.Topo.Hosts()[0].IP(), switchIDs(s.Testbed)[0]
	host, swURL := lb.HostURLs[ip], lb.SwitchURLs[sw]
	table, err := s.Testbed.SwitchAgents[sw].MPH().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mphBody := func(raw []byte) string {
		return `{"table_b64":"` + base64.StdEncoding.EncodeToString(raw) + `"}`
	}

	// Every route: its method, a well-formed body, and — for the agent
	// routes — the flight recorder and span ID a traced request must leave.
	type route struct {
		method, url, body string
		flight            *trace.FlightRecorder
		span              string
	}
	var routes []route
	for _, q := range [][2]string{
		{"headers-batch", `{"queries":[{"switch":1,"epoch_lo":0,"epoch_hi":2}]}`},
		{"topk", `{"switch":1,"k":3}`},
		{"flowsizes", `{"switch":1}`},
		{"priority", `{"flow":{}}`},
		{"record", `{"flow":{}}`},
	} {
		routes = append(routes, route{http.MethodPost, host + "/" + q[0], q[1], lb.HostFlight, "host:" + ip.String() + ":" + q[0]})
	}
	swLabel := strconv.Itoa(int(sw))
	routes = append(routes,
		route{http.MethodPost, swURL + "/pointers", `{"epoch_lo":0,"epoch_hi":2}`, lb.SwitchFlight, "switch:" + swLabel + ":pointers"},
		route{http.MethodPost, swURL + "/mph", mphBody(table), lb.SwitchFlight, "switch:" + swLabel + ":mph"},
		route{http.MethodGet, swURL + "/snapshot", "", lb.SwitchFlight, "switch:" + swLabel + ":snapshot"},
		route{method: http.MethodGet, url: host + "/snapshot"},
		route{method: http.MethodPost, url: lb.AnalyzerURL + "/diagnose"},
	)
	for _, root := range []string{lb.HostURL, lb.SwitchURL, lb.AnalyzerURL} {
		for _, path := range []string{"/healthz", "/metrics", "/traces"} {
			routes = append(routes, route{method: http.MethodGet, url: root + path})
		}
	}
	routes = append(routes, route{method: http.MethodGet, url: lb.AnalyzerURL + "/stats"})

	// A row with a span is sent traced and must leave exactly that child span.
	type row struct {
		name              string
		method, url, body string
		want              int
		flight            *trace.FlightRecorder
		span              string
	}
	var rows []row
	// Padding after a complete JSON value: only the byte limit can refuse it.
	oversized := func(body string) string { return body + strings.Repeat(" ", rpc.LimitRequest) }
	for _, r := range routes {
		path := r.url
		for role, root := range map[string]string{"host ": lb.HostURL, "switch ": lb.SwitchURL, "analyzer ": lb.AnalyzerURL} {
			path = strings.Replace(path, root, role, 1)
		}
		wrong := http.MethodPost
		if r.method == http.MethodPost {
			wrong = http.MethodGet
		}
		rows = append(rows, row{name: "wrong method " + path, method: wrong, url: r.url, body: r.body, want: http.StatusMethodNotAllowed})
		if r.method == http.MethodPost {
			rows = append(rows, row{name: "garbage body " + path, method: r.method, url: r.url, body: "{not json", want: http.StatusBadRequest})
			rows = append(rows, row{name: "oversized body " + path, method: r.method, url: r.url, body: oversized(`{}`), want: http.StatusBadRequest})
		}
		if r.span != "" {
			rows = append(rows, row{name: "traced " + path, method: r.method, url: r.url, body: r.body, want: http.StatusOK, flight: r.flight, span: r.span})
		}
	}
	rows = append(rows,
		row{name: "empty body", method: http.MethodPost, url: host + "/topk", want: http.StatusBadRequest},
		row{name: "unknown route", method: http.MethodPost, url: host + "/nope", body: `{}`, want: http.StatusNotFound},
		row{name: "mph bad base64", method: http.MethodPost, url: swURL + "/mph", body: `{"table_b64":"!!!"}`, want: http.StatusBadRequest},
		row{name: "mph truncated table", method: http.MethodPost, url: swURL + "/mph", body: mphBody(table[:len(table)/2]), want: http.StatusBadRequest},
		row{name: "retired ingest route", method: http.MethodPost, url: host + "/ingest", body: `{}`, want: http.StatusNotFound},
		row{name: "diagnose unknown kind", method: http.MethodPost, url: lb.AnalyzerURL + "/diagnose", body: `{"kind":"nope"}`, want: http.StatusBadRequest},
	)

	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			traceID := "contract-" + tc.span // one trace per route
			if tc.span != "" {
				req.Header.Set(trace.Header, trace.RemoteContext{TraceID: traceID, Parent: "0.1", At: 7}.Encode())
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d (%s), want %d", tc.method, tc.url, resp.StatusCode, strings.TrimSpace(string(msg)), tc.want)
			}
			if tc.span == "" {
				return
			}
			tr, _ := tc.flight.Get(traceID)
			if len(tr.Spans) != 1 || tr.Spans[0].ID != "0.1."+tc.span || tr.Spans[0].Parent != "0.1" || tr.Spans[0].Start != 7 {
				t.Fatalf("traced request left %+v, want one child span 0.1.%s", tr.Spans, tc.span)
			}
		})
	}

	// The client half: Call turns every non-200 into a *rpc.StatusError, so
	// Client.Diagnose callers tell the admission outcomes apart by code.
	diagnoseCode := func(t *testing.T, ad *Admission, env QueryEnvelope) int {
		t.Helper()
		srv := httptest.NewServer(NewAnalyzerHandler(ad))
		ctx, cancel := context.WithTimeout(context.Background(), stuckAfter)
		defer cancel()
		rep, err := (&Client{BaseURL: srv.URL}).Diagnose(ctx, env)
		if ctx.Err() != nil {
			// The handler is stuck in Run, and Close would wait for it.
			t.Fatalf("Diagnose unanswered after %v: %s", stuckAfter, lockHeld)
		}
		srv.Close()
		var se *rpc.StatusError
		if rep != nil || !errors.As(err, &se) {
			t.Fatalf("Diagnose = %v, %v; want no report and a *rpc.StatusError", rep, err)
		}
		return se.Code
	}
	// occupy fills ad's only slot with a diagnosis that blocks until released.
	occupy := func(t *testing.T, ad *Admission, stub *stubRunner) {
		t.Helper()
		go ad.Run(context.Background(), dropQuery()) //nolint:errcheck
		<-stub.started
		t.Cleanup(func() { close(stub.gate) })
	}
	env := mustEnvelope(t, dropQuery())
	t.Run("diagnose malformed query is 400", func(t *testing.T) {
		ad := NewAdmission(cutRunner{}, AdmissionConfig{})
		if code := diagnoseCode(t, ad, QueryEnvelope{Kind: "cascade"}); code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
	})
	t.Run("diagnose queue full is 429", func(t *testing.T) {
		stub := &stubRunner{gate: make(chan struct{}), started: make(chan string, 4)}
		ad := NewAdmission(stub, AdmissionConfig{MaxInFlight: 1, MaxQueued: 1})
		occupy(t, ad, stub)
		go ad.Run(context.Background(), dropQuery()) //nolint:errcheck
		for statsWithin(t, ad).Queued != 1 {
			time.Sleep(time.Millisecond)
		}
		if code := diagnoseCode(t, ad, env); code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", code)
		}
	})
	t.Run("diagnose queue wait expired is 503", func(t *testing.T) {
		stub := &stubRunner{gate: make(chan struct{}), started: make(chan string, 4)}
		ad := NewAdmission(stub, AdmissionConfig{MaxInFlight: 1, MaxQueued: 4, QueueWait: 20 * time.Millisecond})
		occupy(t, ad, stub)
		if code := diagnoseCode(t, ad, env); code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", code)
		}
	})
	t.Run("cancelled diagnosis is 200 with report and error", func(t *testing.T) {
		srv := httptest.NewServer(NewAnalyzerHandler(NewAdmission(cutRunner{}, AdmissionConfig{})))
		defer srv.Close()
		body, _ := json.Marshal(env)
		resp, err := http.Post(srv.URL+"/diagnose", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out DiagnoseResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || out.Report == nil || out.Error != context.Canceled.Error() {
			t.Fatalf("status %d, report %v, error %q; want 200 with both", resp.StatusCode, out.Report, out.Error)
		}
		rep, err := (&Client{BaseURL: srv.URL}).Diagnose(context.Background(), env)
		if rep == nil || err == nil {
			t.Fatalf("Client.Diagnose = %v, %v; want the partial report and the cut", rep, err)
		}
	})
	t.Run("client surfaces 404", func(t *testing.T) {
		_, err := rpc.NewHTTPClient(nil).QueryTopK(context.Background(), host+"/nope", 1, 1)
		var se *rpc.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound || se.URL != host+"/nope/topk" {
			t.Fatalf("QueryTopK on an unknown route = %v, want a 404 *rpc.StatusError", err)
		}
	})
}

// TestNoRecordObjectOnTheWire: flow records travel the service plane only as
// flowrec segments. No request or answer type of a route carries a
// flowrec.Record — bare, by pointer, or in a slice, array or map — as a
// JSON value.
func TestNoRecordObjectOnTheWire(t *testing.T) {
	recordType := reflect.TypeFor[flowrec.Record]()
	// carries returns the path to the first Record inside typ, or "".
	var carries func(typ reflect.Type, path string, seen map[reflect.Type]bool) string
	carries = func(typ reflect.Type, path string, seen map[reflect.Type]bool) string {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			return carries(typ.Elem(), path+"[]", seen)
		case reflect.Map:
			return carries(typ.Elem(), path+"[key]", seen)
		case reflect.Struct:
			if typ == recordType {
				return path
			}
			if seen[typ] {
				return ""
			}
			seen[typ] = true
			for i := range typ.NumField() {
				if f := typ.Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
					if p := carries(f.Type, path+"."+f.Name, seen); p != "" {
						return p
					}
				}
			}
		}
		return ""
	}
	if p := carries(reflect.TypeFor[struct{ Recs []*flowrec.Record }](), "canary", map[reflect.Type]bool{}); p != "canary.Recs[][]" {
		t.Fatalf("the walk misses a []*flowrec.Record field: %q", p)
	}
	for _, v := range []any{
		rpc.HeadersRequest{}, rpc.HeadersResponse{}, rpc.HeadersBatchRequest{}, rpc.HeadersBatchResponse{},
		rpc.TopKRequest{}, []hostagent.FlowBytes{}, rpc.FlowSizesRequest{}, []hostagent.FlowSize{},
		rpc.PriorityRequest{}, rpc.PriorityResponse{}, rpc.RecordRequest{}, rpc.RecordResponse{},
		rpc.PointersRequest{}, rpc.PointersResponse{}, rpc.MPHRequest{},
		statesync.Health{},
		QueryEnvelope{}, DiagnoseResponse{}, AdmissionStats{},
	} {
		typ := reflect.TypeOf(v)
		if p := carries(typ, typ.String(), map[reflect.Type]bool{}); p != "" {
			t.Errorf("%s carries a flowrec.Record as JSON at %s; ship a flowrec segment instead", typ, p)
		}
	}
}

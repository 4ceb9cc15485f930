package cluster_test

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/cluster"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
)

// This file states the service plane's two concurrency contracts as tests
// of behaviour, each where the behaviour happens:
//
//   - Cancellation reaches the wire. Every exported entry point that can do
//     network I/O threads its caller's ctx into the requests it sends, so a
//     cancelled diagnosis, push or bootstrap ends every request it has in
//     flight (TestCancelReachesTheWire).
//   - Nothing waits on a peer under a lock. Installs to different switches
//     overlap (TestDistributeInstallsOverlap); a response nobody reads
//     stalls no other request and no store write
//     (TestSlowReaderStallsNoSwitchRoute, TestSlowSnapshotReaderStallsNoPut);
//     a forward sink that blocks stalls no other alert
//     (TestBlockingSinkStallsNoOffer).
//
// Every wait is on a channel and gives up after contractWait, so a broken
// contract fails a named test in seconds instead of hanging go test. An
// exported I/O function or a lock around I/O that is new to the tree is
// checked only once it has a row here.

// contractWait bounds every wait in this file.
const contractWait = 2 * time.Second

// redLights is a testbed to hang requests and locks on: built, never run.
func redLights(t *testing.T) *scenario.Testbed {
	t.Helper()
	s, err := scenario.NewRedLights(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Testbed.Close)
	return s.Testbed
}

// lowestSwitch is the testbed's switch with the smallest ID.
func lowestSwitch(tb *scenario.Testbed) netsim.NodeID {
	sw := netsim.NodeID(-1)
	for id := range tb.SwitchAgents {
		if sw < 0 || id < sw {
			sw = id
		}
	}
	return sw
}

// heldRequest is one request a hang server holds: its path, and the
// server's own view of when the request ended.
type heldRequest struct {
	path string
	gone <-chan struct{}
}

// newHangServer starts a peer that never answers: it holds every request
// until the request's context ends, announcing each on the returned channel
// while it holds it.
func newHangServer(t *testing.T) (*httptest.Server, <-chan heldRequest) {
	held := make(chan heldRequest)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// net/http watches the connection for a departed client only once
		// the body is read; until then r.Context() would outlive the caller.
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		select {
		case held <- heldRequest{r.URL.Path, r.Context().Done()}:
		case <-r.Context().Done():
			return
		}
		<-r.Context().Done()
	}))
	t.Cleanup(func() {
		srv.CloseClientConnections()
		srv.Close()
	})
	return srv, held
}

// cancelRow is one entry point of TestCancelReachesTheWire.
type cancelRow struct {
	name string
	// call runs the entry point against base, a URL prefix every request
	// it sends lies under, and returns its error.
	call func(ctx context.Context, base string) error
	// quiet marks an entry point that returns no error (only a bool, say):
	// it must just return.
	quiet bool
}

// TestCancelReachesTheWire: every exported service-plane entry point that
// can do network I/O, run against a peer that holds each request until its
// context ends, stops when its caller's ctx is cancelled. Within
// contractWait of the cancel it returns an error wrapping context.Canceled
// (or just returns, when it reports no error), and the peer sees the
// request end. The clients' own per-host bound is a minute, so only the
// caller's ctx can end a request in time: a chain severed anywhere —
// context.Background in a method, a closure or a request — fails its row.
func TestCancelReachesTheWire(t *testing.T) {
	srv, held := newHangServer(t)
	tb := redLights(t)
	ips := make([]netsim.IPv4, 0, len(tb.HostAgents))
	for ip := range tb.HostAgents {
		ips = append(ips, ip)
	}
	slices.Sort(ips)
	sw := lowestSwitch(tb)
	client := rpc.NewPooledHTTPClient()
	client.PerHostTimeout = time.Minute
	t.Cleanup(client.CloseIdleConnections)
	hc := client.HTTP
	boot := &statesync.Bootstrapper{HTTP: hc}
	flow := netsim.FlowKey{Src: ips[0], Dst: ips[1], SrcPort: 1, DstPort: 80, Proto: 6}
	epochs := simtime.EpochRange{Lo: 0, Hi: 2}

	dir := func(base string) (*analyzer.RemoteDirectory, error) {
		return analyzer.NewRemoteDirectory(ips, map[netsim.NodeID]string{sw: base}, client)
	}
	// A round over two hosts with one worker: the first request hangs, and
	// the dispatch check before the second reports the cancel.
	hosts := func(base string) (*analyzer.RemoteHosts, []netsim.IPv4) {
		return analyzer.NewRemoteHosts(map[netsim.IPv4]string{ips[0]: base, ips[1]: base}, client), ips[:2]
	}
	// A round over one host with four workers: its request is the last
	// dispatch, so no dispatch check is left to see the cancel, and the
	// round must still report it rather than an empty answer.
	lastHost := func(base string) (*analyzer.RemoteHosts, []netsim.IPv4) {
		return analyzer.NewRemoteHosts(map[netsim.IPv4]string{ips[0]: base}, client), ips[:1]
	}
	rows := []cancelRow{
		{name: "HTTPClient.Call", call: func(ctx context.Context, base string) error {
			return client.Call(ctx, base+"/any", rpc.Empty{}, nil, rpc.LimitRequest)
		}},
		{name: "HTTPClient.QueryHeadersBatch", call: func(ctx context.Context, base string) error {
			_, err := client.QueryHeadersBatch(ctx, base, []hostagent.HeadersQuery{{Switch: sw, Epochs: epochs}})
			return err
		}},
		{name: "HTTPClient.QueryTopK", call: func(ctx context.Context, base string) error {
			_, err := client.QueryTopK(ctx, base, sw, 3)
			return err
		}},
		{name: "HTTPClient.QueryFlowSizes", call: func(ctx context.Context, base string) error {
			_, err := client.QueryFlowSizes(ctx, base, sw)
			return err
		}},
		{name: "HTTPClient.QueryPriority", call: func(ctx context.Context, base string) error {
			_, _, err := client.QueryPriority(ctx, base, flow)
			return err
		}},
		{name: "HTTPClient.QueryRecord", call: func(ctx context.Context, base string) error {
			_, _, err := client.QueryRecord(ctx, base, flow)
			return err
		}},
		{name: "HTTPClient.InstallMPH", call: func(ctx context.Context, base string) error {
			return client.InstallMPH(ctx, base, tb.SwitchAgents[sw].MPH())
		}},
		{name: "HTTPClient.PullPointers", call: func(ctx context.Context, base string) error {
			_, _, err := client.PullPointers(ctx, base, epochs)
			return err
		}},
		{name: "RemoteDirectory.Hosts", call: func(ctx context.Context, base string) error {
			d, err := dir(base)
			if err == nil {
				_, err = d.Hosts(ctx, sw, epochs)
			}
			return err
		}},
		{name: "RemoteDirectory.HostsBatch", call: func(ctx context.Context, base string) error {
			d, err := dir(base)
			if err != nil {
				return err
			}
			_, errs := d.HostsBatch(ctx, []analyzer.SwitchEpochs{{Switch: sw, Epochs: epochs}})
			return errs[0]
		}},
		{name: "RemoteDirectory.Distribute", call: func(ctx context.Context, base string) error {
			d, err := dir(base)
			if err != nil {
				return err
			}
			return d.Distribute(ctx)
		}},
		{name: "RemoteHosts.HeadersRound", call: func(ctx context.Context, base string) error {
			r, hs := hosts(base)
			_, _, err := r.HeadersRound(ctx, 1, hs, []hostagent.HeadersQuery{{Switch: sw, Epochs: epochs}})
			return err
		}},
		{name: "RemoteHosts.TopKRound", call: func(ctx context.Context, base string) error {
			r, hs := hosts(base)
			_, _, err := r.TopKRound(ctx, 1, hs, sw, 3)
			return err
		}},
		{name: "RemoteHosts.FlowSizesRound", call: func(ctx context.Context, base string) error {
			r, hs := hosts(base)
			_, _, err := r.FlowSizesRound(ctx, 1, hs, sw)
			return err
		}},
		{name: "RemoteHosts.HeadersRound/after-last-dispatch", call: func(ctx context.Context, base string) error {
			r, hs := lastHost(base)
			_, _, err := r.HeadersRound(ctx, 4, hs, []hostagent.HeadersQuery{{Switch: sw, Epochs: epochs}})
			return err
		}},
		{name: "RemoteHosts.TopKRound/after-last-dispatch", call: func(ctx context.Context, base string) error {
			r, hs := lastHost(base)
			_, _, err := r.TopKRound(ctx, 4, hs, sw, 3)
			return err
		}},
		{name: "RemoteHosts.FlowSizesRound/after-last-dispatch", call: func(ctx context.Context, base string) error {
			r, hs := lastHost(base)
			_, _, err := r.FlowSizesRound(ctx, 4, hs, sw)
			return err
		}},
		{name: "RemoteHosts.Priority", quiet: true, call: func(ctx context.Context, base string) error {
			r, hs := hosts(base)
			r.Priority(ctx, hs[0], flow)
			return nil
		}},
		{name: "RemoteHosts.Record", quiet: true, call: func(ctx context.Context, base string) error {
			r, hs := hosts(base)
			r.Record(ctx, hs[0], flow)
			return nil
		}},
		{name: "Bootstrapper.BootstrapStore", call: func(ctx context.Context, base string) error {
			_, _, err := boot.BootstrapStore(ctx, base, tb.HostAgents[ips[0]].Store)
			return err
		}},
		{name: "Bootstrapper.BootstrapSwitch", call: func(ctx context.Context, base string) error {
			return boot.BootstrapSwitch(ctx, base, tb.SwitchAgents[sw])
		}},
		{name: "BootstrapHosts", call: func(ctx context.Context, base string) error {
			_, _, err := cluster.BootstrapHosts(ctx, boot, base, tb)
			return err
		}},
		{name: "BootstrapSwitches", call: func(ctx context.Context, base string) error {
			return cluster.BootstrapSwitches(ctx, boot, base, tb)
		}},
		{name: "Client.Diagnose", call: func(ctx context.Context, base string) error {
			_, err := (&cluster.Client{BaseURL: base, HTTP: hc}).Diagnose(ctx, cluster.QueryEnvelope{Kind: "top-k"})
			return err
		}},
		{name: "Client.Stats", call: func(ctx context.Context, base string) error {
			_, err := (&cluster.Client{BaseURL: base, HTTP: hc}).Stats(ctx)
			return err
		}},
		{name: "WaitReady", call: func(ctx context.Context, base string) error {
			return cluster.WaitReady(ctx, base+"/healthz", time.Minute)
		}},
		{name: "FetchTraceIndex", call: func(ctx context.Context, base string) error {
			_, err := cluster.FetchTraceIndex(ctx, hc, base)
			return err
		}},
		{name: "FetchTrace", call: func(ctx context.Context, base string) error {
			_, _, err := cluster.FetchTrace(ctx, hc, base, "0123456789abcdef")
			return err
		}},
	}
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			prefix := fmt.Sprintf("/row%d", i)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			returned := make(chan error, 1)
			go func() { returned <- row.call(ctx, srv.URL+prefix) }()

			var req heldRequest
			for req.gone == nil {
				select {
				case r := <-held:
					if strings.HasPrefix(r.path, prefix+"/") { // not a straggler of an earlier row
						req = r
					}
				case err := <-returned:
					t.Fatalf("returned before the peer held its request: %v", err)
				case <-time.After(contractWait):
					t.Fatal("no request reached the peer")
				}
			}

			cancel()
			wait, stop := context.WithTimeout(context.Background(), contractWait)
			defer stop()
			select {
			case err := <-returned:
				if !row.quiet && !errors.Is(err, context.Canceled) {
					t.Errorf("returned %v after its ctx was cancelled, want an error wrapping context.Canceled", err)
				}
			case <-wait.Done():
				t.Errorf("still running %v after its ctx was cancelled: the caller's ctx does not reach its request", contractWait)
				srv.CloseClientConnections() // so the row reports now, not at the per-host bound
				select {
				case <-returned:
				case <-time.After(contractWait):
					t.Fatal("did not return even with its connection closed")
				}
				return
			}
			select {
			case <-req.gone:
			case <-wait.Done():
				t.Errorf("the peer never saw its request end: the cancel did not reach the wire")
			}
		})
	}
}

// TestDistributeInstallsOverlap: Distribute pushes to as many switches at
// once as its fan-out has workers. Each switch holds its /mph request until
// every one has arrived, so installs serialised — by a lock held across a
// remote round — never all arrive, and the test gives up after
// contractWait.
func TestDistributeInstallsOverlap(t *testing.T) {
	n := rpc.DefaultFanOutWorkers()
	if n < 2 {
		t.Skipf("Distribute fans out over %d worker here (GOMAXPROCS), so no two installs can overlap", n)
	}
	var mu sync.Mutex
	arrived := 0
	all := make(chan struct{})    // closed once every install is in flight
	giveUp := make(chan struct{}) // closed once the test stops waiting
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		mu.Lock()
		if arrived++; arrived == n {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-giveUp:
			http.Error(w, "not every install arrived", http.StatusServiceUnavailable)
		case <-r.Context().Done():
		}
	}))
	defer func() {
		srv.CloseClientConnections()
		srv.Close()
	}()
	client := rpc.NewPooledHTTPClient()
	defer client.CloseIdleConnections()
	urls := make(map[netsim.NodeID]string, n)
	for i := range n {
		urls[netsim.NodeID(i)] = srv.URL + "/switches/" + strconv.Itoa(i)
	}
	dir, err := analyzer.NewRemoteDirectory([]netsim.IPv4{netsim.IP(10, 0, 0, 1), netsim.IP(10, 0, 0, 2)}, urls, client)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- dir.Distribute(context.Background()) }()
	overlapped := true
	select {
	case <-all:
	case <-time.After(contractWait):
		mu.Lock()
		got := arrived
		mu.Unlock()
		t.Errorf("only %d of %d installs in flight at once: Distribute must not hold a lock across an install", got, n)
		overlapped = false
		close(giveUp)
	}
	select {
	case err := <-done:
		if overlapped && err != nil {
			t.Fatal(err)
		}
	case <-time.After(contractWait):
		t.Fatal("Distribute did not return")
	}
}

// stalledWriter is a response nobody reads: its first Write records what it
// was given, closes writing, and blocks until release is closed.
type stalledWriter struct {
	header  http.Header
	first   []byte
	writing chan struct{}
	release chan struct{}
	once    sync.Once
}

func newStalledWriter() *stalledWriter {
	return &stalledWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		w.first = append([]byte(nil), p...)
		close(w.writing)
	})
	<-w.release
	return len(p), nil
}

// serveStalled runs h on a stalledWriter and returns once the handler is
// blocked writing its answer; the cleanup releases it and waits for it.
func serveStalled(t *testing.T, h http.Handler, r *http.Request) *stalledWriter {
	t.Helper()
	w := newStalledWriter()
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, r)
	}()
	t.Cleanup(func() {
		close(w.release)
		select {
		case <-served:
		case <-time.After(contractWait):
			t.Error("the stalled request never finished once released")
		}
	})
	select {
	case <-w.writing:
	case <-served:
		t.Fatal("answered without writing")
	case <-time.After(contractWait):
		t.Fatal("never started writing its answer")
	}
	return w
}

// TestSlowReaderStallsNoSwitchRoute: each switch route that takes the
// handler's lock (/snapshot, /pointers, /mph) is left blocked writing its
// answer to a reader that never reads; meanwhile every other of those
// routes on the same switch must answer within contractWait. A route that
// writes while holding the lock stalls the switch behind one slow peer.
func TestSlowReaderStallsNoSwitchRoute(t *testing.T) {
	tb := redLights(t)
	sw := lowestSwitch(tb)
	table, err := tb.SwitchAgents[sw].MPH().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mux := cluster.SwitchMux(tb, nil)
	type route struct{ method, path, body string }
	routes := []route{
		{http.MethodGet, "/snapshot", ""},
		{http.MethodPost, "/pointers", `{"epoch_lo":0,"epoch_hi":2}`},
		{http.MethodPost, "/mph", `{"table_b64":"` + base64.StdEncoding.EncodeToString(table) + `"}`},
	}
	request := func(r route) *http.Request {
		return httptest.NewRequest(r.method, "/switches/"+strconv.Itoa(int(sw))+r.path, strings.NewReader(r.body))
	}
	for _, slow := range routes {
		t.Run(slow.path[1:], func(t *testing.T) {
			serveStalled(t, mux, request(slow))
			for _, other := range routes {
				if other == slow {
					continue
				}
				rec := httptest.NewRecorder()
				answered := make(chan struct{})
				go func() {
					defer close(answered)
					mux.ServeHTTP(rec, request(other))
				}()
				select {
				case <-answered:
					if rec.Code != http.StatusOK {
						t.Errorf("%s answered %d: %s", other.path, rec.Code, rec.Body)
					}
				case <-time.After(contractWait):
					t.Errorf("%s waited behind %s's unread answer: the switch handler writes while holding its lock", other.path, slow.path)
				}
			}
		})
	}
}

// TestSlowSnapshotReaderStallsNoPut: a host /snapshot blocked writing a
// shard's segment to a reader that never reads must not stall the agent's
// absorption — a Put into that very shard returns within contractWait.
func TestSlowSnapshotReaderStallsNoPut(t *testing.T) {
	tb := redLights(t)
	ag := tb.HostAgents[tb.Topo.Hosts()[0].IP()]
	for port := uint16(1); port <= 64; port++ { // flows in most shards
		rec := flowrec.New(netsim.FlowKey{Src: netsim.IP(10, 0, 0, 2), Dst: netsim.IP(10, 1, 0, byte(port)), SrcPort: port, DstPort: 80, Proto: 6})
		rec.Path = []netsim.NodeID{1}
		rec.Epochs = []simtime.EpochRange{{Lo: 1, Hi: 2}}
		rec.LastSeen, rec.Pkts = simtime.Time(port), 1
		ag.Store.Put(rec)
	}
	w := serveStalled(t, statesync.HostSnapshotHandler(ag), httptest.NewRequest(http.MethodGet, "/snapshot", nil))
	recs, err := flowrec.DecodeSegment(w.first)
	if err != nil || len(recs) == 0 {
		t.Fatalf("first write is not a segment of records: %d records, %v", len(recs), err)
	}
	// The same flow hashes to the same shard: the one being written.
	rec := recs[0]
	rec.LastSeen++
	put := make(chan bool, 1)
	go func() { put <- ag.Store.Put(rec) }()
	select {
	case ok := <-put:
		if !ok {
			t.Error("Put of a newer record was refused")
		}
	case <-time.After(contractWait):
		t.Error("Put into the shard being written waited behind the unread snapshot: the store holds the shard's lock while the segment is written")
	}
}

// TestBlockingSinkStallsNoOffer: while the pipeline's forward sink blocks
// on one alert's query, an Offer for another flow and a Stats call both
// return — NewAlertPipeline promises its sink runs outside the lock.
func TestBlockingSinkStallsNoOffer(t *testing.T) {
	slow := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, 0, 2), SrcPort: 1, DstPort: 80, Proto: 6}
	other := slow
	other.SrcPort = 2
	entered, release := make(chan struct{}), make(chan struct{})
	p := cluster.NewAlertPipeline(cluster.PipelineConfig{}, func(q analyzer.Query) {
		if q.(analyzer.ContentionQuery).Alert.Flow == slow {
			close(entered)
			<-release
		}
	})
	offer := func(flow netsim.FlowKey) <-chan bool {
		ok := make(chan bool, 1)
		go func() { ok <- p.Offer(hostagent.Alert{Kind: hostagent.AlertThroughputDrop, Flow: flow}) }()
		return ok
	}
	first := offer(slow)
	defer func() {
		close(release)
		select {
		case <-first:
		case <-time.After(contractWait):
			t.Error("the blocked Offer never returned once its sink was released")
		}
	}()
	select {
	case <-entered:
	case <-time.After(contractWait):
		t.Fatal("the sink never received the first alert's query")
	}

	second := offer(other)
	stats := make(chan cluster.PipelineStats, 1)
	go func() { stats <- p.Stats() }()
	wait, stop := context.WithTimeout(context.Background(), contractWait)
	defer stop()
	select {
	case ok := <-second:
		if !ok {
			t.Error("the second alert was suppressed; want it forwarded")
		}
	case <-wait.Done():
		t.Error("an Offer for another flow waited behind a blocked sink: the pipeline runs its sink under its lock")
	}
	select {
	case <-stats:
	case <-wait.Done():
		t.Error("Stats waited behind a blocked sink: the pipeline runs its sink under its lock")
	}
}

package cluster

import (
	"fmt"
	"net"
	"net/http"
	"strconv"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/statesync"
	"switchpointer/internal/trace"
)

// HostMux serves every host agent of a testbed on one handler, multiplexed
// by IP: agent for host ip lives under /hosts/<ip>/ — the rpc.NewHostHandler
// query routes plus the state-sync plane (GET /hosts/<ip>/snapshot, POST
// /hosts/<ip>/ingest). /healthz answers the statesync.Health document
// (state + resident-record/evicted-segment accounting) against rd; a nil rd
// reports permanently live — the non-bootstrap daemon. This is what `spd
// host` serves; HostURLs derives the matching per-host base URLs. The
// daemon's self-observability rides along: GET /metrics (Prometheus text
// over a hostRegistry, returned as Service.Registry), GET /stats (the
// HostStatsDoc JSON) and GET /traces (Service.Flight, which every agent's
// query handler records traced requests' child spans into).
func HostMux(tb *scenario.Testbed, rd *statesync.Readiness) *Service {
	fr := trace.NewFlightRecorder("host", 0)
	mux := http.NewServeMux()
	for ip, ag := range tb.HostAgents {
		prefix := "/hosts/" + ip.String()
		mux.Handle(prefix+"/", http.StripPrefix(prefix, rpc.NewHostHandler(ag, ip.String(), fr)))
		mux.Handle(prefix+"/snapshot", statesync.HostSnapshotHandler(ag))
		mux.Handle(prefix+"/ingest", statesync.IngestHandler(ag, rd))
	}
	mux.Handle("/healthz", statesync.HealthzHandler(rd, hostStats(tb)))
	mux.Handle("/stats", HostStatsHandler(tb, rd))
	return newService(mux, hostRegistry(tb, rd), fr)
}

// hostStats sums a host daemon's /healthz accounting: records resident
// across every agent's store, and flushed (evicted) segments across every
// agent's cold read-back log.
func hostStats(tb *scenario.Testbed) func() (resident, evictedSegments int) {
	return func() (resident, evictedSegments int) {
		for _, ag := range tb.HostAgents {
			resident += ag.Store.Len()
			if cold := ag.ColdReader(); cold != nil {
				v := cold.View()
				evictedSegments += v.Len()
				v.Close()
			}
		}
		return resident, evictedSegments
	}
}

// SwitchMux serves every switch agent of a testbed on one handler,
// multiplexed by switch ID under /switches/<id>/ (the rpc.NewSwitchHandler
// routes below it, including the state-sync GET /switches/<id>/snapshot).
// /healthz reports readiness against rd plus the daemon's pushed
// control-store slot count as its resident-record figure — what `spd
// switch` serves. GET /metrics, /stats and /traces ride along as on HostMux.
func SwitchMux(tb *scenario.Testbed, rd *statesync.Readiness) *Service {
	fr := trace.NewFlightRecorder("switch", 0)
	mux := http.NewServeMux()
	for id, ag := range tb.SwitchAgents {
		prefix := "/switches/" + strconv.Itoa(int(id))
		mux.Handle(prefix+"/", http.StripPrefix(prefix, rpc.NewSwitchHandler(ag, strconv.Itoa(int(id)), fr)))
	}
	mux.Handle("/healthz", statesync.HealthzHandler(rd, func() (int, int) {
		resident := 0
		for _, ag := range tb.SwitchAgents {
			resident += ag.ControlStoreLen()
		}
		return resident, 0
	}))
	mux.Handle("/stats", SwitchStatsHandler(tb, rd))
	return newService(mux, SwitchRegistry(tb, rd), fr)
}

// HostURLs maps every host IP to its base URL under a HostMux server root.
func HostURLs(base string, tb *scenario.Testbed) map[netsim.IPv4]string {
	urls := make(map[netsim.IPv4]string, len(tb.HostAgents))
	for ip := range tb.HostAgents {
		urls[ip] = base + "/hosts/" + ip.String()
	}
	return urls
}

// SwitchURLs maps every switch ID to its base URL under a SwitchMux server
// root.
func SwitchURLs(base string, tb *scenario.Testbed) map[netsim.NodeID]string {
	urls := make(map[netsim.NodeID]string, len(tb.SwitchAgents))
	for id := range tb.SwitchAgents {
		urls[id] = base + "/switches/" + strconv.Itoa(int(id))
	}
	return urls
}

// NewRemoteAnalyzer assembles an analyzer whose every backend speaks HTTP:
// pointer pulls and MPH distribution through analyzer.RemoteDirectory
// against the switch URLs, all per-host query rounds through
// analyzer.RemoteHosts against the host URLs. One pooled client is shared
// by both planes so keep-alive connections span a whole diagnosis. The
// topology and cost model come from the (locally rebuilt) testbed — the
// deployment knowledge an analyzer node carries.
//
// The host-IP index order is tb.Topo.Hosts() order, matching the MPH the
// testbed distributed to its switches, so remotely decoded pointer bitmaps
// agree with in-memory decoding bit for bit.
func NewRemoteAnalyzer(tb *scenario.Testbed, hostURLs map[netsim.IPv4]string, switchURLs map[netsim.NodeID]string, client *rpc.HTTPClient) (*analyzer.Analyzer, error) {
	if client == nil {
		client = rpc.NewPooledHTTPClient()
	}
	hosts := tb.Topo.Hosts()
	ips := make([]netsim.IPv4, 0, len(hosts))
	for _, h := range hosts {
		ips = append(ips, h.IP())
	}
	dir, err := analyzer.NewRemoteDirectory(ips, switchURLs, client)
	if err != nil {
		return nil, err
	}
	a := analyzer.New(tb.Topo, dir, nil, tb.Opt.Cost)
	a.HostBack = analyzer.NewRemoteHosts(hostURLs, client)
	return a, nil
}

// Loopback is a whole SwitchPointer service plane on 127.0.0.1: the
// testbed's host agents behind HostMux, its switch agents behind SwitchMux,
// and an admission-controlled analyzer service whose analyzer reaches both
// only over HTTP. It is the in-process twin of an `spd host|switch|analyzer`
// trio — the launcher tests and the e2e equivalence gate use.
type Loopback struct {
	// HostURL/SwitchURL/AnalyzerURL are the three servers' roots.
	HostURL, SwitchURL, AnalyzerURL string
	// HostURLs/SwitchURLs map agents to their per-agent base URLs.
	HostURLs   map[netsim.IPv4]string
	SwitchURLs map[netsim.NodeID]string

	// Analyzer is the remote-backend analyzer the service executes.
	Analyzer *analyzer.Analyzer
	// Admission is the controller in front of it.
	Admission *Admission
	// Client is pre-pointed at the analyzer service.
	Client *Client

	// HostFlight/SwitchFlight/AnalyzerFlight are the three daemons' trace
	// flight recorders, served at each root's GET /traces. AnalyzerFlight
	// advertises the other two as peers so a trace client can walk the
	// whole trio from the analyzer alone.
	HostFlight     *trace.FlightRecorder
	SwitchFlight   *trace.FlightRecorder
	AnalyzerFlight *trace.FlightRecorder

	httpClient *rpc.HTTPClient
	servers    []*http.Server
}

// NewLoopback serves tb's full service plane on three fresh loopback
// listeners. The testbed must be idle (run to its horizon) — the simulated
// agents are served in place. Close releases everything.
func NewLoopback(tb *scenario.Testbed, cfg AdmissionConfig) (lb *Loopback, err error) {
	hosts, switches := HostMux(tb, nil), SwitchMux(tb, nil)
	lb = &Loopback{
		httpClient:     rpc.NewPooledHTTPClient(),
		HostFlight:     hosts.Flight,
		SwitchFlight:   switches.Flight,
		AnalyzerFlight: trace.NewFlightRecorder("analyzer", 0),
	}
	defer func() {
		if err != nil {
			lb.Close()
			lb = nil
		}
	}()
	if lb.HostURL, err = lb.serve(hosts); err != nil {
		return
	}
	if lb.SwitchURL, err = lb.serve(switches); err != nil {
		return
	}
	lb.HostURLs = HostURLs(lb.HostURL, tb)
	lb.SwitchURLs = SwitchURLs(lb.SwitchURL, tb)
	lb.AnalyzerFlight.SetPeers(map[string]string{"hosts": lb.HostURL, "switches": lb.SwitchURL})

	if lb.Analyzer, err = NewRemoteAnalyzer(tb, lb.HostURLs, lb.SwitchURLs, lb.httpClient); err != nil {
		return
	}
	lb.Admission = NewAdmission(lb.Analyzer, cfg)
	lb.Admission.Flight = lb.AnalyzerFlight
	if lb.AnalyzerURL, err = lb.serve(NewAnalyzerHandler(lb.Admission)); err != nil {
		return
	}
	lb.Client = &Client{BaseURL: lb.AnalyzerURL}
	return lb, nil
}

// serve starts one HTTP server on a fresh 127.0.0.1 listener and returns
// its root URL.
func (lb *Loopback) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("cluster: loopback listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
	lb.servers = append(lb.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return "http://" + ln.Addr().String(), nil
}

// Close shuts every server down and drops pooled connections.
func (lb *Loopback) Close() {
	for _, srv := range lb.servers {
		srv.Close() //nolint:errcheck
	}
	lb.httpClient.CloseIdleConnections()
}

package rpc

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"switchpointer/internal/bitset"
	"switchpointer/internal/header"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
	"switchpointer/internal/switchagent"
	"switchpointer/internal/topo"
	"switchpointer/internal/transport"
)

func TestDefaultCostModelValid(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultCostModel()
	bad.ConnInit = -1
	if err := bad.Validate(); err == nil {
		t.Fatalf("negative cost accepted")
	}
}

func TestClockPhases(t *testing.T) {
	c := NewClock(DefaultCostModel(), 100*simtime.Millisecond)
	c.Spend("detection", simtime.Millisecond)
	c.AlertDelivered()
	c.PointersPulled(1)
	c.HostsQueried("diagnosis", []netsim.IPv4{1, 2}, []int{10, 1000})
	if c.Now() != 100*simtime.Millisecond+c.Total() {
		t.Fatalf("Now drifted from phases: %v vs %v", c.Now(), c.Total())
	}
	if c.PhaseTotal("alert") != 2500*simtime.Microsecond {
		t.Fatalf("alert phase = %v", c.PhaseTotal("alert"))
	}
	if c.PhaseTotal("pointer-retrieval") != 7500*simtime.Microsecond {
		t.Fatalf("pointer phase = %v", c.PhaseTotal("pointer-retrieval"))
	}
	// Two servers: 2×3.3ms init + RTT + max exec (0.8ms + 1000×2µs = 2.8ms).
	want := 2*3300*simtime.Microsecond + 250*simtime.Microsecond + 2800*simtime.Microsecond
	if got := c.PhaseTotal("diagnosis"); got != want {
		t.Fatalf("diagnosis = %v, want %v", got, want)
	}
	if len(c.Phases()) != 4 {
		t.Fatalf("phases = %d", len(c.Phases()))
	}
}

func TestClockSequentialInitScalesLinearly(t *testing.T) {
	// The §6.2 bottleneck: contacting n servers costs ≈ n × ConnInit.
	cost := DefaultCostModel()
	servers := func(n int) []netsim.IPv4 {
		out := make([]netsim.IPv4, n)
		for i := range out {
			out[i] = netsim.IPv4(i + 1)
		}
		return out
	}
	c8 := NewClock(cost, 0)
	c8.HostsQueried("q", servers(8), nil)
	c96 := NewClock(cost, 0)
	c96.HostsQueried("q", servers(96), nil)
	d8, d96 := c8.Total(), c96.Total()
	ratio := float64(d96-cost.RTT-cost.QueryExec) / float64(d8-cost.RTT-cost.QueryExec)
	if ratio < 11.9 || ratio > 12.1 {
		t.Fatalf("init cost not linear: %v", ratio)
	}
	// 96 servers ≈ 0.32 s — the Fig 12 PathDump regime.
	if d96 < 300*simtime.Millisecond || d96 > 350*simtime.Millisecond {
		t.Fatalf("96-server query = %v, want ≈317ms", d96)
	}
}

func TestClockPooledAblation(t *testing.T) {
	cost := DefaultCostModel()
	cost.Pooled = true
	c := NewClock(cost, 0)
	srv := []netsim.IPv4{1, 2, 3}
	c.HostsQueried("q1", srv, nil)
	first := c.Total()
	c.HostsQueried("q2", srv, nil)
	second := c.Total() - first
	if second >= first {
		t.Fatalf("pooled reuse not cheaper: first=%v second=%v", first, second)
	}
	if second != cost.RTT+cost.QueryExec {
		t.Fatalf("pooled second round = %v", second)
	}
}

func TestClockPointerRounds(t *testing.T) {
	c := NewClock(DefaultCostModel(), 0)
	c.PointersPulled(3)
	// 7.5ms + 2×1.25ms = 10ms — the paper's "three switches in 10 ms".
	if got := c.Total(); got != 10*simtime.Millisecond {
		t.Fatalf("3-switch pull = %v, want 10ms", got)
	}
	c2 := NewClock(DefaultCostModel(), 0)
	c2.PointersPulled(0)
	if c2.Total() != 0 {
		t.Fatalf("0-switch pull should be free")
	}
}

// TestHTTPEndToEnd runs the full stack over real sockets: traffic on the
// simulated testbed, then host/switch agents served via httptest and queried
// with the HTTP client.
func TestHTTPEndToEnd(t *testing.T) {
	net := netsim.New()
	tp := topo.Chain(net, []int{1, 0, 1}, topo.Config{})
	alpha := 10 * simtime.Millisecond
	params := header.Params{Alpha: alpha, Eps: alpha, Delta: 2 * alpha}

	hosts := tp.Hosts()
	keys := make([]uint32, len(hosts))
	for i, h := range hosts {
		keys[i] = uint32(h.IP())
	}
	table, err := mph.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	var swAgents []*switchagent.Agent
	for _, sw := range tp.Switches() {
		ag, err := switchagent.New(net, tp, sw, switchagent.Config{
			Pointer: pointer.Config{Alpha: alpha, K: 2, NumHosts: len(hosts)},
			Mode:    header.ModeCommodity,
			Params:  params,
		})
		if err != nil {
			t.Fatal(err)
		}
		ag.InstallMPH(table)
		swAgents = append(swAgents, ag)
	}
	dec := &header.Decoder{Topo: tp, Mode: header.ModeCommodity, Params: params}
	src, dst := hosts[0], hosts[1]
	hostAg := hostagent.New(net, dst, dec, hostagent.Config{})

	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 7, DstPort: 8, Proto: netsim.ProtoUDP}
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow: flow, Priority: 2, RateBps: 200_000_000, Start: 0, Duration: 25 * simtime.Millisecond})
	net.RunUntil(40 * simtime.Millisecond)

	// Serve the agents over HTTP (simulation now idle).
	hostSrv := httptest.NewServer(NewHostHandler(hostAg, "", nil))
	defer hostSrv.Close()
	swSrv := httptest.NewServer(NewSwitchHandler(swAgents[0], "", nil))
	defer swSrv.Close()
	client := NewHTTPClient(nil)

	s1 := tp.Switches()[0]
	// Pointer pull over the wire.
	bits, resp, err := client.PullPointers(context.Background(), swSrv.URL, simtime.EpochRange{Lo: 0, Hi: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Covered || !bits.Get(table.Lookup(uint32(dst.IP()))) {
		t.Fatalf("pointer pull: covered=%v bits=%v", resp.Covered, bits.Indices())
	}
	// Headers query over the wire.
	answers, err := client.QueryHeadersBatch(context.Background(), hostSrv.URL,
		[]hostagent.HeadersQuery{{Switch: s1.NodeID(), Epochs: simtime.EpochRange{Lo: 0, Hi: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	recs := answerRecords(t, answers[0])
	if len(recs) != 1 || recs[0].Flow != flow || recs[0].Priority != 2 {
		t.Fatalf("headers = %+v", recs)
	}
	if len(recs[0].EpochBytes) == 0 {
		t.Fatalf("EpochBytes lost in JSON round trip")
	}
	// Top-k over the wire.
	top, err := client.QueryTopK(context.Background(), hostSrv.URL, s1.NodeID(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Flow != flow || top[0].Bytes == 0 {
		t.Fatalf("topk = %+v", top)
	}
	// Flow sizes over the wire.
	sizes, err := client.QueryFlowSizes(context.Background(), hostSrv.URL, s1.NodeID())
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 1 || sizes[0].Link == 0 {
		t.Fatalf("flowsizes = %+v", sizes)
	}
	// Priority over the wire.
	prio, known, err := client.QueryPriority(context.Background(), hostSrv.URL, flow)
	if err != nil || !known || prio != 2 {
		t.Fatalf("priority = %d %v %v", prio, known, err)
	}
	// Unknown flow.
	_, known, err = client.QueryPriority(context.Background(), hostSrv.URL, netsim.FlowKey{Src: 1})
	if err != nil || known {
		t.Fatalf("unknown flow: %v %v", known, err)
	}

	// Concurrent pulls against ONE switch: the handler must serialize
	// access to the (not concurrency-safe) agent, so overlapping diagnoses
	// sharing a switch are race-free and all see the same answer (gated by
	// the -race run of this package).
	var wg sync.WaitGroup
	pulls := make([]*bitset.Set, 8)
	errs := make([]error, 8)
	for i := range pulls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pulls[i], _, errs[i] = client.PullPointers(context.Background(), swSrv.URL, simtime.EpochRange{Lo: 0, Hi: 2})
		}(i)
	}
	wg.Wait()
	for i := range pulls {
		if errs[i] != nil {
			t.Fatalf("concurrent pull %d: %v", i, errs[i])
		}
		if got, want := pulls[i].Indices(), bits.Indices(); !reflect.DeepEqual(got, want) {
			t.Fatalf("concurrent pull %d diverged: %v != %v", i, got, want)
		}
	}
}

func TestPointersResponseDecodeErrors(t *testing.T) {
	var bad PointersResponse
	if err := json.Unmarshal([]byte(`{"hosts_b64":"!!!"}`), &bad); err == nil {
		t.Fatalf("invalid base64 accepted")
	}
	if err := json.Unmarshal([]byte(`{"hosts_b64":"AAAA"}`), &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Decode(); err == nil {
		t.Fatalf("truncated bitmap accepted")
	}
}

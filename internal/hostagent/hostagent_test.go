package hostagent

import (
	"context"
	"testing"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/transport"
)

func params() header.Params {
	return header.Params{
		Alpha: 10 * simtime.Millisecond,
		Eps:   10 * simtime.Millisecond,
		Delta: 20 * simtime.Millisecond,
	}
}

// testbed builds a chain with embedders installed and agents on all hosts.
func testbed(t *testing.T) (*netsim.Network, *topo.Topology, map[netsim.IPv4]*Agent) {
	t.Helper()
	net := netsim.New()
	net.NewSwitchQueue = func() netsim.Queue { return netsim.NewPriorityQueue(netsim.DefaultSwitchBufBytes) }
	tp := topo.Chain(net, []int{2, 2, 2}, topo.Config{})
	emb := &header.Embedder{Topo: tp, Mode: header.ModeCommodity, Params: params()}
	for _, sw := range tp.Switches() {
		sw.Pipeline = append(sw.Pipeline, emb.Stage())
	}
	dec := &header.Decoder{Topo: tp, Mode: header.ModeCommodity, Params: params()}
	agents := make(map[netsim.IPv4]*Agent)
	for _, h := range tp.Hosts() {
		agents[h.IP()] = New(net, h, dec, Config{})
	}
	return net, tp, agents
}

func TestRecordsBuiltFromTraffic(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 5, DstPort: 6, Proto: netsim.ProtoUDP}
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow: flow, RateBps: 100_000_000, Start: 0, Duration: 30 * simtime.Millisecond})
	net.Run()

	ag := agents[dst.IP()]
	if ag.Received == 0 || ag.DecodeErrors != 0 {
		t.Fatalf("received=%d decodeErrors=%d", ag.Received, ag.DecodeErrors)
	}
	rec, ok := ag.Store.Lookup(flow)
	if !ok {
		t.Fatalf("no record for flow")
	}
	if len(rec.Path) != 3 {
		t.Fatalf("path = %v", rec.Path)
	}
	if rec.Bytes == 0 || rec.Pkts == 0 {
		t.Fatalf("counters empty")
	}
	// 30 ms at α=10ms spans epochs 0..2; tagging switch range must cover
	// roughly that.
	s1, _ := tp.SwitchByName("S1")
	er, ok := rec.EpochsAt(s1.NodeID())
	if !ok || er.Len() < 2 {
		t.Fatalf("S1 epochs = %v", er)
	}
}

func TestThroughputDropTrigger(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	udpSrc, _ := tp.HostByName("h1-2")
	udpDst, _ := tp.HostByName("h3-2")

	var alerts []Alert
	ag := agents[dst.IP()]
	ag.OnAlert = func(a Alert) { alerts = append(alerts, a) }
	ag.StartTriggers()

	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 1, Proto: netsim.ProtoTCP}
	transport.StartTCP(net, src, dst, transport.TCPConfig{
		Flow: flow, Priority: 0, Duration: 100 * simtime.Millisecond})
	// High-priority blast at t=50ms starves the TCP flow.
	transport.StartUDP(net, udpSrc, transport.UDPConfig{
		Flow:     netsim.FlowKey{Src: udpSrc.IP(), Dst: udpDst.IP(), SrcPort: 2, DstPort: 2},
		Priority: 7, RateBps: netsim.Rate1G,
		Start: 50 * simtime.Millisecond, Duration: 10 * simtime.Millisecond})
	net.RunUntil(120 * simtime.Millisecond)

	var got *Alert
	for i := range alerts {
		if alerts[i].Flow == flow {
			got = &alerts[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("no alert for the starved flow (alerts: %d)", len(alerts))
	}
	if got.Kind != AlertThroughputDrop {
		t.Fatalf("kind = %v", got.Kind)
	}
	// Detection within a few ms of the 50 ms starvation onset.
	if got.DetectedAt < 50*simtime.Millisecond || got.DetectedAt > 60*simtime.Millisecond {
		t.Fatalf("DetectedAt = %v", got.DetectedAt)
	}
	if got.PrevGbps < 0.5 || got.CurGbps > got.PrevGbps/2 {
		t.Fatalf("drop magnitudes: prev=%v cur=%v", got.PrevGbps, got.CurGbps)
	}
	// Alert must carry the <switch, epochs> tuples for the whole path.
	if len(got.Tuples) != 3 {
		t.Fatalf("tuples = %d, want 3", len(got.Tuples))
	}
	s1, _ := tp.SwitchByName("S1")
	if got.Tuples[0].Switch != s1.NodeID() {
		t.Fatalf("first tuple switch = %v", got.Tuples[0].Switch)
	}
	if got.Tuples[0].EpochBytes == nil {
		t.Fatalf("tagging-switch tuple missing per-epoch byte counts")
	}
}

// TestSameTickAlertsRaisedInFlowOrder: two UDP flows into one host stop at
// the same instant, so both drops land in one meter tick. The tick raises
// them in flowrec.Less order of their flows, not in the meter map's random
// iteration order, so every run sees the same alert sequence.
func TestSameTickAlertsRaisedInFlowOrder(t *testing.T) {
	var first []netsim.FlowKey
	for run := 0; run < 40; run++ {
		net, tp, agents := testbed(t)
		dst, _ := tp.HostByName("h3-1")
		var got []Alert
		ag := agents[dst.IP()]
		ag.OnAlert = func(a Alert) { got = append(got, a) }
		ag.StartTriggers()
		for i, name := range []string{"h1-1", "h1-2"} {
			src, _ := tp.HostByName(name)
			transport.StartUDP(net, src, transport.UDPConfig{
				Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: uint16(10 + i), DstPort: 9, Proto: netsim.ProtoUDP},
				RateBps: 200_000_000, Start: 0, Duration: 5 * simtime.Millisecond})
		}
		net.RunUntil(20 * simtime.Millisecond)
		if len(got) != 2 || got[0].DetectedAt != got[1].DetectedAt {
			t.Fatalf("run %d: want two alerts from one tick, got %d: %+v", run, len(got), got)
		}
		if !flowrec.Less(got[0].Flow, got[1].Flow) {
			t.Fatalf("run %d: alerts raised as %v then %v, not in flow order", run, got[0].Flow, got[1].Flow)
		}
		flows := []netsim.FlowKey{got[0].Flow, got[1].Flow}
		if first == nil {
			first = flows
		} else if flows[0] != first[0] || flows[1] != first[1] {
			t.Fatalf("run %d: alert order %v differs from run 0's %v", run, flows, first)
		}
	}
}

func TestTriggerCooldownSuppressesDuplicates(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	udpSrc, _ := tp.HostByName("h1-2")
	udpDst, _ := tp.HostByName("h3-2")
	ag := agents[dst.IP()]
	count := 0
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 1, Proto: netsim.ProtoTCP}
	ag.OnAlert = func(a Alert) {
		if a.Flow == flow {
			count++
		}
	}
	ag.StartTriggers()
	transport.StartTCP(net, src, dst, transport.TCPConfig{
		Flow: flow, Priority: 0, Duration: 80 * simtime.Millisecond})
	transport.StartUDP(net, udpSrc, transport.UDPConfig{
		Flow:     netsim.FlowKey{Src: udpSrc.IP(), Dst: udpDst.IP(), SrcPort: 2, DstPort: 2},
		Priority: 7, RateBps: netsim.Rate1G,
		Start: 40 * simtime.Millisecond, Duration: 5 * simtime.Millisecond})
	net.RunUntil(100 * simtime.Millisecond)
	if count > 2 {
		t.Fatalf("cooldown failed: %d alerts for one event", count)
	}
}

// AnswerRecords decodes an answer's segment into the records it carries, nil
// when none: the decoded record is the oracle the in-place readers are
// checked against.
func AnswerRecords(t testing.TB, ans HeadersAnswer) []*flowrec.Record {
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

func TestQueryHeaders(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 9, DstPort: 9, Proto: netsim.ProtoUDP}
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow: flow, RateBps: 200_000_000, Start: 0, Duration: 25 * simtime.Millisecond})
	net.Run()
	ag := agents[dst.IP()]
	s2, _ := tp.SwitchByName("S2")

	recs := AnswerRecords(t, ag.QueryHeadersMulti(context.Background(), []HeadersQuery{{Switch: s2.NodeID(), Epochs: simtime.EpochRange{Lo: 0, Hi: 5}}})[0])
	if len(recs) != 1 || recs[0].Flow != flow {
		t.Fatalf("QueryHeadersMulti = %v", recs)
	}
	// Epoch window far in the future matches nothing.
	if recs := AnswerRecords(t, ag.QueryHeadersMulti(context.Background(), []HeadersQuery{{Switch: s2.NodeID(), Epochs: simtime.EpochRange{Lo: 1000, Hi: 2000}}})[0]); len(recs) != 0 {
		t.Fatalf("future epochs should match nothing")
	}
	// Unknown switch matches nothing.
	if recs := AnswerRecords(t, ag.QueryHeadersMulti(context.Background(), []HeadersQuery{{Switch: 999, Epochs: simtime.EpochRange{Lo: 0, Hi: 5}}})[0]); len(recs) != 0 {
		t.Fatalf("unknown switch should match nothing")
	}
}

// TestQueryHeadersOrderAndFreshness: the store hands window matches over
// shard by shard; the answer must still be in global flow-key order, honour
// the flow restriction, and follow records that widen after an earlier query
// left memos behind.
func TestQueryHeadersOrderAndFreshness(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	const flows = 40 // enough to land in every shard
	var keys []netsim.FlowKey
	for i := 0; i < flows; i++ {
		flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: uint16(100 + i), DstPort: 9, Proto: netsim.ProtoUDP}
		keys = append(keys, flow)
		transport.StartUDP(net, src, transport.UDPConfig{
			Flow: flow, RateBps: 2_000_000, Start: 0, Duration: 95 * simtime.Millisecond})
	}
	ag := agents[dst.IP()]
	s2, _ := tp.SwitchByName("S2")
	ctx := context.Background()

	net.RunUntil(30 * simtime.Millisecond)
	late := simtime.EpochRange{Lo: 7, Hi: 8} // no packet has seen these epochs yet
	if recs := AnswerRecords(t, ag.QueryHeadersMulti(ctx, []HeadersQuery{{Switch: s2.NodeID(), Epochs: late}})[0]); len(recs) != 0 {
		t.Fatalf("epochs 7-8 answered %d records at t=30ms", len(recs))
	}
	net.Run()
	recs := AnswerRecords(t, ag.QueryHeadersMulti(ctx, []HeadersQuery{{Switch: s2.NodeID(), Epochs: late}})[0])
	if len(recs) != flows {
		t.Fatalf("after the flows ran through epochs 7-8 the query answers %d of %d", len(recs), flows)
	}
	for i, r := range recs {
		if r.Flow != keys[i] {
			t.Fatalf("answer[%d] = %v, want %v (flow-key order)", i, r.Flow, keys[i])
		}
	}
	only := []netsim.FlowKey{keys[31], keys[2]}
	recs = AnswerRecords(t, ag.QueryHeadersMulti(ctx, []HeadersQuery{{Switch: s2.NodeID(), Epochs: late, Flows: only}})[0])
	if len(recs) != 2 || recs[0].Flow != keys[2] || recs[1].Flow != keys[31] {
		t.Fatalf("restricted answer = %v", recs)
	}
}

func TestQueryTopK(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	s2, _ := tp.SwitchByName("S2")
	// Three flows with distinct rates to the same destination.
	for i, rate := range []int64{50_000_000, 150_000_000, 100_000_000} {
		transport.StartUDP(net, src, transport.UDPConfig{
			Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: uint16(10 + i), DstPort: 7, Proto: netsim.ProtoUDP},
			RateBps: rate, Start: 0, Duration: 20 * simtime.Millisecond})
	}
	net.Run()
	ag := agents[dst.IP()]
	top := ag.QueryTopK(context.Background(), s2.NodeID(), 2)
	if len(top) != 2 {
		t.Fatalf("topk = %d", len(top))
	}
	if top[0].Flow.SrcPort != 11 || top[1].Flow.SrcPort != 12 {
		t.Fatalf("topk order wrong: %+v", top)
	}
	if top[0].Bytes <= top[1].Bytes {
		t.Fatalf("topk not descending")
	}
	if all := ag.QueryTopK(context.Background(), s2.NodeID(), 0); len(all) != 3 {
		t.Fatalf("k=0 should return all: %d", len(all))
	}
}

func TestQueryPriorityAndFlowSizes(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	s1, _ := tp.SwitchByName("S1")
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 3, DstPort: 4, Proto: netsim.ProtoUDP}
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow: flow, Priority: 5, RateBps: 100_000_000, Start: 0, Duration: 10 * simtime.Millisecond})
	net.Run()
	ag := agents[dst.IP()]
	if prio, ok := ag.QueryPriority(context.Background(), flow); !ok || prio != 5 {
		t.Fatalf("QueryPriority = %d %v", prio, ok)
	}
	if _, ok := ag.QueryPriority(context.Background(), netsim.FlowKey{Src: 1}); ok {
		t.Fatalf("unknown flow priority should miss")
	}
	sizes := ag.QueryFlowSizes(context.Background(), s1.NodeID())
	if len(sizes) != 1 || sizes[0].Bytes == 0 || sizes[0].Link == 0 {
		t.Fatalf("QueryFlowSizes = %+v", sizes)
	}
}

// TestRaiseBuildsPathTuples raises an alert by hand for a flow that never
// slowed down: raise still attaches one tuple per switch on its path.
func TestRaiseBuildsPathTuples(t *testing.T) {
	net, tp, agents := testbed(t)
	src, _ := tp.HostByName("h1-1")
	dst, _ := tp.HostByName("h3-1")
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 3, DstPort: 4, Proto: netsim.ProtoTCP}
	transport.StartUDP(net, src, transport.UDPConfig{ // some traffic so a record exists
		Flow: flow, RateBps: 100_000_000, Start: 0, Duration: 5 * simtime.Millisecond})
	net.Run()
	ag := agents[dst.IP()]
	var got Alert
	ag.OnAlert = func(a Alert) { got = a }
	ag.raise(Alert{Kind: AlertThroughputDrop, Flow: flow, Host: dst.IP(), DetectedAt: 42 * simtime.Millisecond})
	if got.Kind != AlertThroughputDrop || got.Flow != flow || len(got.Tuples) != 3 {
		t.Fatalf("raised alert = %+v", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MeterInterval != simtime.Millisecond || c.DropFraction != 0.5 {
		t.Fatalf("defaults: %+v", c)
	}
	if AlertThroughputDrop.String() == "" || AlertKind(9).String() == "" {
		t.Fatalf("AlertKind.String broken")
	}
}

package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"switchpointer/internal/simtime"
)

func TestIPv4Formatting(t *testing.T) {
	ip := IP(10, 0, 1, 200)
	if ip.String() != "10.0.1.200" {
		t.Fatalf("String = %q", ip.String())
	}
	if uint32(ip) != 10<<24|1<<8|200 {
		t.Fatalf("value = %x", uint32(ip))
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src || r.SrcPort != 20 || r.DstPort != 10 || r.Proto != ProtoTCP {
		t.Fatalf("Reverse = %+v", r)
	}
	if r.Reverse() != k {
		t.Fatalf("double reverse should round-trip")
	}
	if k.String() != "TCP 1.1.1.1:10->2.2.2.2:20" {
		t.Fatalf("String = %q", k.String())
	}
}

// TestFlowKeyStringForm pins the append-style formatter to the fmt form it
// replaced — reports, traces and sort orders are built from this string.
func TestFlowKeyStringForm(t *testing.T) {
	keys := []FlowKey{
		{},
		{Src: IP(1, 1, 1, 1), Dst: IP(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoTCP},
		{Src: IP(10, 0, 1, 200), Dst: IP(10, 3, 0, 2), SrcPort: 1024, DstPort: 9000, Proto: ProtoUDP},
		{Src: IP(255, 255, 255, 255), Dst: IP(255, 255, 255, 255), SrcPort: 65535, DstPort: 65535, Proto: 255},
		{Src: IP(0, 0, 0, 9), Dst: IP(9, 0, 0, 0), SrcPort: 0, DstPort: 1, Proto: 1},
	}
	for _, k := range keys {
		proto := fmt.Sprintf("proto(%d)", uint8(k.Proto))
		switch k.Proto {
		case ProtoTCP:
			proto = "TCP"
		case ProtoUDP:
			proto = "UDP"
		}
		want := fmt.Sprintf("%s %s:%d->%s:%d", proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
		if got := k.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
		if k.Proto.String() != proto {
			t.Errorf("Proto.String = %q, want %q", k.Proto.String(), proto)
		}
		if len(want) > flowKeyStringMax {
			t.Errorf("%q outgrows the %d-byte stack buffer", want, flowKeyStringMax)
		}
	}
}

// TestCompareStringMatchesStringOrder: CompareString is the string order by
// construction; check it anyway over the whole key space — every port, both
// protocols and unknown ones, addresses of every printed width — and that it
// allocates nothing.
func TestCompareStringMatchesStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	octets := []byte{0, 1, 9, 10, 19, 99, 100, 199, 255}
	protos := []Protocol{ProtoTCP, ProtoUDP, 0, 1, 47, 200}
	randKey := func() FlowKey {
		ip := func() IPv4 {
			return IP(octets[rng.Intn(len(octets))], octets[rng.Intn(len(octets))], octets[rng.Intn(len(octets))], octets[rng.Intn(len(octets))])
		}
		return FlowKey{Src: ip(), Dst: ip(), SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)), Proto: protos[rng.Intn(len(protos))]}
	}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for i := 0; i < 10_000; i++ {
		a, b := randKey(), randKey()
		if i%4 == 0 { // near-ties: the tie-break's whole job
			b = a
			b.DstPort = uint16(rng.Intn(65536))
		}
		if got, want := sign(a.CompareString(b)), strings.Compare(a.String(), b.String()); got != want {
			t.Fatalf("CompareString(%v, %v) = %d, strings.Compare = %d", a, b, got, want)
		}
	}
	a, b := randKey(), randKey()
	if allocs := testing.AllocsPerRun(1000, func() { _ = a.CompareString(b) }); allocs != 0 {
		t.Fatalf("CompareString: %v allocs, want 0", allocs)
	}
}

func TestPacketTags(t *testing.T) {
	p := &Packet{Size: 1000}
	p.PushTag(Tag{Type: TagLink, Value: 7})
	p.PushTag(Tag{Type: TagEpoch, Value: 42})
	if p.Size != 1008 {
		t.Fatalf("Size after two tags = %d, want 1008", p.Size)
	}
	if tag, ok := p.TagOf(TagEpoch); !ok || tag.Value != 42 {
		t.Fatalf("TagOf(TagEpoch) = %+v, %v", tag, ok)
	}
	if _, ok := (&Packet{}).TagOf(TagLink); ok {
		t.Fatalf("TagOf on untagged packet should be false")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("third tag should panic (802.1ad limit)")
		}
	}()
	p.PushTag(Tag{Type: TagLink, Value: 1})
}

func TestPacketINTAndClone(t *testing.T) {
	p := &Packet{Size: 100}
	p.AppendINT(HopRecord{Switch: 3, Epoch: 9})
	if p.Size != 100+INTHopBytes || len(p.INT) != 1 {
		t.Fatalf("INT append wrong: size=%d len=%d", p.Size, len(p.INT))
	}
	c := p.Clone()
	c.AppendINT(HopRecord{Switch: 4, Epoch: 10})
	if len(p.INT) != 1 {
		t.Fatalf("Clone aliases INT slice")
	}
}

func TestFIFOQueueDropTail(t *testing.T) {
	q := NewFIFOQueue(2500)
	a := &Packet{ID: 1, Size: 1000}
	b := &Packet{ID: 2, Size: 1000}
	c := &Packet{ID: 3, Size: 1000}
	if !q.Enqueue(a) || !q.Enqueue(b) {
		t.Fatalf("first two enqueues should fit")
	}
	if q.Enqueue(c) {
		t.Fatalf("third enqueue should drop (2500 cap)")
	}
	if q.Len() != 2 || q.Bytes() != 2000 {
		t.Fatalf("Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	if q.Dequeue().ID != 1 || q.Dequeue().ID != 2 || q.Dequeue() != nil {
		t.Fatalf("FIFO order broken")
	}
}

func TestFIFOQueueRingGrowth(t *testing.T) {
	q := NewFIFOQueue(1 << 20)
	for i := 0; i < 100; i++ {
		q.Enqueue(&Packet{ID: uint64(i), Size: 10})
	}
	// Interleave to force wraparound.
	for i := 0; i < 50; i++ {
		if q.Dequeue().ID != uint64(i) {
			t.Fatalf("order broken at %d", i)
		}
	}
	for i := 100; i < 200; i++ {
		q.Enqueue(&Packet{ID: uint64(i), Size: 10})
	}
	for i := 50; i < 200; i++ {
		p := q.Dequeue()
		if p == nil || p.ID != uint64(i) {
			t.Fatalf("order broken at %d: %+v", i, p)
		}
	}
}

func TestPriorityQueueStrictOrder(t *testing.T) {
	q := NewPriorityQueue(1 << 20)
	lo := &Packet{ID: 1, Size: 100, Priority: 0}
	hi := &Packet{ID: 2, Size: 100, Priority: 7}
	mid := &Packet{ID: 3, Size: 100, Priority: 3}
	q.Enqueue(lo)
	q.Enqueue(hi)
	q.Enqueue(mid)
	if q.Len() != 3 || q.Bytes() != 300 {
		t.Fatalf("Len/Bytes wrong")
	}
	if q.Dequeue().ID != 2 || q.Dequeue().ID != 3 || q.Dequeue().ID != 1 {
		t.Fatalf("strict priority order broken")
	}
	if q.Dequeue() != nil {
		t.Fatalf("empty dequeue should be nil")
	}
}

func TestPriorityQueueSharedBudget(t *testing.T) {
	q := NewPriorityQueue(250)
	if !q.Enqueue(&Packet{Size: 200, Priority: 0}) {
		t.Fatalf("first should fit")
	}
	if q.Enqueue(&Packet{Size: 100, Priority: 7}) {
		t.Fatalf("budget is shared: high priority should also be tail-dropped")
	}
}

func TestPriorityQueueClampsBand(t *testing.T) {
	q := NewPriorityQueue(1 << 10)
	q.Enqueue(&Packet{ID: 1, Size: 10, Priority: 200}) // clamped to top band
	q.Enqueue(&Packet{ID: 2, Size: 10, Priority: 7})
	if q.Dequeue().ID != 1 {
		t.Fatalf("clamped-band packet should still dequeue first (FIFO within band)")
	}
}

func TestQueueConstructorsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"fifo": func() { NewFIFOQueue(0) },
		"prio": func() { NewPriorityQueue(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewQueueKinds(t *testing.T) {
	if _, ok := NewQueue(QueueFIFO, 10).(*FIFOQueue); !ok {
		t.Fatalf("QueueFIFO wrong type")
	}
	if _, ok := NewQueue(QueuePriority, 10).(*PriorityQueue); !ok {
		t.Fatalf("QueuePriority wrong type")
	}
}

// buildLine builds H1 -- S1 -- H2 with the given rate and delay.
func buildLine(t *testing.T, rate int64, delay simtime.Time) (*Network, *Host, *Switch, *Host) {
	t.Helper()
	n := New()
	h1 := n.NewHost("h1", IP(10, 0, 0, 1))
	h2 := n.NewHost("h2", IP(10, 0, 0, 2))
	s1 := n.NewSwitch("s1", 0)
	n.Connect(h1, s1, LinkConfig{RateBps: rate, Delay: delay})
	n.Connect(s1, h2, LinkConfig{RateBps: rate, Delay: delay})
	// Routing: s1 port 0 faces h1, port 1 faces h2.
	s1.SetRoute(h1.IP(), 0)
	s1.SetRoute(h2.IP(), 1)
	return n, h1, s1, h2
}

func TestEndToEndDeliveryTiming(t *testing.T) {
	n, h1, _, h2 := buildLine(t, Rate1G, 2*simtime.Microsecond)
	var arrivals []simtime.Time
	h2.OnReceive(func(p *Packet, now simtime.Time) { arrivals = append(arrivals, now) })

	pkt := &Packet{ID: n.AllocPacketID(), Size: 1500, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}}
	h1.Send(pkt)
	n.Run()

	if len(arrivals) != 1 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// 1500B at 1Gbps = 12µs serialization, twice (host NIC + switch egress),
	// plus 2µs propagation twice = 28µs.
	want := 28 * simtime.Microsecond
	if arrivals[0] != want {
		t.Fatalf("arrival at %v, want %v", arrivals[0], want)
	}
}

func TestStoreAndForwardPipelining(t *testing.T) {
	n, h1, _, h2 := buildLine(t, Rate1G, 0)
	var arrivals []simtime.Time
	h2.OnReceive(func(p *Packet, now simtime.Time) { arrivals = append(arrivals, now) })
	for i := 0; i < 3; i++ {
		h1.Send(&Packet{ID: n.AllocPacketID(), Size: 1500, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}})
	}
	n.Run()
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %d", len(arrivals))
	}
	// With store-and-forward, back-to-back packets arrive 12µs apart (one
	// serialization time at the bottleneck), the first after 24µs.
	ser := 12 * simtime.Microsecond
	if arrivals[0] != 2*ser || arrivals[1] != 3*ser || arrivals[2] != 4*ser {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestSwitchNoRouteDrop(t *testing.T) {
	n, h1, s1, _ := buildLine(t, Rate1G, 0)
	drops := 0
	n.OnDrop = func(p *Packet, at *Port, now simtime.Time) { drops++ }
	h1.Send(&Packet{ID: 1, Size: 100, Flow: FlowKey{Src: h1.IP(), Dst: IP(99, 9, 9, 9)}})
	n.Run()
	if s1.NoRouteDrops != 1 || drops != 1 {
		t.Fatalf("NoRouteDrops=%d hook=%d", s1.NoRouteDrops, drops)
	}
}

func TestRouteOverride(t *testing.T) {
	n := New()
	h1 := n.NewHost("h1", IP(10, 0, 0, 1))
	h2 := n.NewHost("h2", IP(10, 0, 0, 2))
	h3 := n.NewHost("h3", IP(10, 0, 0, 3))
	s1 := n.NewSwitch("s1", 0)
	n.Connect(h1, s1, LinkConfig{RateBps: Rate1G})
	n.Connect(s1, h2, LinkConfig{RateBps: Rate1G})
	n.Connect(s1, h3, LinkConfig{RateBps: Rate1G})
	s1.SetRoute(h2.IP(), 1)
	s1.SetRoute(h3.IP(), 2)
	// Malfunction: everything to h2 is detoured to h3's port.
	s1.RouteOverride = func(sw *Switch, p *Packet) (int, bool) {
		if p.Flow.Dst == h2.IP() {
			return 2, true
		}
		return 0, false
	}
	got2, got3 := 0, 0
	h2.OnReceive(func(p *Packet, now simtime.Time) { got2++ })
	h3.OnReceive(func(p *Packet, now simtime.Time) { got3++ })
	h1.Send(&Packet{ID: 1, Size: 100, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}})
	n.Run()
	if got2 != 0 || got3 != 1 {
		t.Fatalf("override not applied: h2=%d h3=%d", got2, got3)
	}
}

func TestPipelineHookRuns(t *testing.T) {
	n, h1, s1, h2 := buildLine(t, Rate1G, 0)
	var seen []uint64
	s1.Pipeline = append(s1.Pipeline, func(sw *Switch, p *Packet, in, out *Port, now simtime.Time) {
		if sw != s1 || in.Owner() != s1 || out.Owner() != s1 {
			t.Errorf("pipeline wiring wrong")
		}
		if out.Index() != 1 {
			t.Errorf("out port = %d, want 1", out.Index())
		}
		seen = append(seen, p.ID)
	})
	h1.Send(&Packet{ID: 77, Size: 100, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}})
	n.Run()
	if len(seen) != 1 || seen[0] != 77 {
		t.Fatalf("pipeline saw %v", seen)
	}
	if s1.ForwardedPkts != 1 {
		t.Fatalf("ForwardedPkts = %d", s1.ForwardedPkts)
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	n := New()
	n.NewSwitchQueue = func() Queue { return NewFIFOQueue(3000) } // tiny buffer
	h1 := n.NewHost("h1", IP(10, 0, 0, 1))
	h2 := n.NewHost("h2", IP(10, 0, 0, 2))
	s1 := n.NewSwitch("s1", 0)
	// Fast ingress, slow egress → queue builds at s1.
	n.Connect(h1, s1, LinkConfig{RateBps: Rate10G})
	n.Connect(s1, h2, LinkConfig{RateBps: Rate1G})
	s1.SetRoute(h2.IP(), 1)
	received := 0
	h2.OnReceive(func(p *Packet, now simtime.Time) { received++ })
	for i := 0; i < 20; i++ {
		h1.Send(&Packet{ID: uint64(i), Size: 1500, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}})
	}
	n.Run()
	egress := s1.Port(1)
	if egress.Drops == 0 {
		t.Fatalf("expected drops at the slow egress")
	}
	if received+int(egress.Drops) != 20 {
		t.Fatalf("received %d + drops %d != 20", received, egress.Drops)
	}
}

func TestPriorityStarvation(t *testing.T) {
	// A standing low-priority queue is starved while high-priority packets
	// keep arriving — the §2.1 phenomenon in miniature.
	n := New()
	n.NewSwitchQueue = func() Queue { return NewPriorityQueue(DefaultSwitchBufBytes) }
	hLo := n.NewHost("lo", IP(10, 0, 0, 1))
	hHi := n.NewHost("hi", IP(10, 0, 0, 2))
	dst := n.NewHost("dst", IP(10, 0, 0, 3))
	s := n.NewSwitch("s", 0)
	n.Connect(hLo, s, LinkConfig{RateBps: Rate10G})
	n.Connect(hHi, s, LinkConfig{RateBps: Rate10G})
	n.Connect(s, dst, LinkConfig{RateBps: Rate1G})
	s.SetRoute(dst.IP(), 2)

	var order []uint8
	dst.OnReceive(func(p *Packet, now simtime.Time) { order = append(order, p.Priority) })

	// Low-priority packets arrive first and sit in the queue...
	for i := 0; i < 5; i++ {
		hLo.Send(&Packet{ID: uint64(i), Size: 1500, Priority: 0, Flow: FlowKey{Src: hLo.IP(), Dst: dst.IP()}})
	}
	// ...then a high-priority burst lands while the egress is still busy.
	n.Engine.At(10*simtime.Microsecond, func() {
		for i := 0; i < 5; i++ {
			hHi.Send(&Packet{ID: uint64(100 + i), Size: 1500, Priority: 7, Flow: FlowKey{Src: hHi.IP(), Dst: dst.IP()}})
		}
	})
	n.Run()
	if len(order) != 10 {
		t.Fatalf("received %d", len(order))
	}
	// First packet may be low (already serializing); after the burst lands,
	// all highs must precede all remaining lows.
	firstHi := -1
	for i, pr := range order {
		if pr == 7 {
			firstHi = i
			break
		}
	}
	if firstHi < 0 {
		t.Fatalf("no high-priority packet received")
	}
	for i := firstHi; i < len(order); i++ {
		if order[i] == 0 && i < firstHi+5 {
			t.Fatalf("low-priority packet interleaved with high burst: %v", order)
		}
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	n, h1, _, h2 := buildLine(t, Rate1G, 0)
	var t1, t2 simtime.Time
	h1.OnReceive(func(p *Packet, now simtime.Time) { t1 = now })
	h2.OnReceive(func(p *Packet, now simtime.Time) { t2 = now })
	h1.Send(&Packet{ID: 1, Size: 1500, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}})
	h2.Send(&Packet{ID: 2, Size: 1500, Flow: FlowKey{Src: h2.IP(), Dst: h1.IP()}})
	n.Run()
	// Both directions complete in 24µs each; neither blocks the other.
	if t1 != 24*simtime.Microsecond || t2 != 24*simtime.Microsecond {
		t.Fatalf("t1=%v t2=%v, want both 24µs", t1, t2)
	}
}

func TestPortCounters(t *testing.T) {
	n, h1, s1, h2 := buildLine(t, Rate1G, 0)
	h2.OnReceive(func(p *Packet, now simtime.Time) {})
	h1.Send(&Packet{ID: 1, Size: 1000, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}})
	n.Run()
	eg := s1.Port(1)
	if eg.TxBytes != 1000 || eg.TxPkts != 1 {
		t.Fatalf("egress counters: %d bytes, %d pkts", eg.TxBytes, eg.TxPkts)
	}
	in := s1.Port(0)
	if in.RxBytes != 1000 || in.RxPkts != 1 {
		t.Fatalf("ingress counters: %d bytes, %d pkts", in.RxBytes, in.RxPkts)
	}
	nic := h2.NIC()
	if nic.RxBytes != 1000 {
		t.Fatalf("host NIC RxBytes = %d", nic.RxBytes)
	}
}

func TestOnTransmitMeter(t *testing.T) {
	n, h1, s1, h2 := buildLine(t, Rate1G, 0)
	var metered int
	s1.Port(1).OnTransmit = func(p *Packet, now simtime.Time) { metered += p.Size }
	h1.Send(&Packet{ID: 1, Size: 1000, Flow: FlowKey{Src: h1.IP(), Dst: h2.IP()}})
	n.Run()
	if metered != 1000 {
		t.Fatalf("metered %d", metered)
	}
}

func TestRoutingLoopGuard(t *testing.T) {
	n := New()
	h1 := n.NewHost("h1", IP(10, 0, 0, 1))
	a := n.NewSwitch("a", 0)
	b := n.NewSwitch("b", 0)
	n.Connect(h1, a, LinkConfig{RateBps: Rate10G})
	n.Connect(a, b, LinkConfig{RateBps: Rate10G})
	// Deliberate loop: a→b and b→a for the same destination.
	dst := IP(10, 0, 0, 99)
	a.SetRoute(dst, 1)
	b.SetRoute(dst, 0)
	h1.Send(&Packet{ID: 1, Size: 100, Flow: FlowKey{Src: h1.IP(), Dst: dst}})
	n.Run()
	if a.TTLDrops+b.TTLDrops != 1 {
		t.Fatalf("loop guard did not fire: a=%d b=%d", a.TTLDrops, b.TTLDrops)
	}
}

func TestDuplicateHostIPPanics(t *testing.T) {
	n := New()
	n.NewHost("a", IP(1, 1, 1, 1))
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate IP should panic")
		}
	}()
	n.NewHost("b", IP(1, 1, 1, 1))
}

func TestLookups(t *testing.T) {
	n := New()
	h := n.NewHost("h", IP(1, 2, 3, 4))
	s := n.NewSwitch("s", 5*simtime.Millisecond)
	if nd, ok := n.NodeByID(h.NodeID()); !ok || nd.NodeName() != "h" {
		t.Fatalf("NodeByID host failed")
	}
	if nd, ok := n.NodeByID(s.NodeID()); !ok || nd.NodeName() != "s" {
		t.Fatalf("NodeByID switch failed")
	}
	if _, ok := n.NodeByID(999); ok {
		t.Fatalf("bogus ID found")
	}
	if got, ok := n.HostByIP(IP(1, 2, 3, 4)); !ok || got != h {
		t.Fatalf("HostByIP failed")
	}
	if s.LocalEpoch(7*simtime.Millisecond, 10*simtime.Millisecond) != 1 {
		t.Fatalf("LocalEpoch with +5ms offset at t=7ms should be epoch 1")
	}
}

func TestSerializationTime(t *testing.T) {
	if got := serializationTime(1500, Rate1G); got != 12*simtime.Microsecond {
		t.Fatalf("1500B@1G = %v, want 12µs", got)
	}
	if got := serializationTime(64, Rate10G); got != simtime.Time(51*simtime.Nanosecond)+simtime.Time(200*0) {
		// 64*8/10e9 s = 51.2ns, truncated to 51ns
		if got != 51*simtime.Nanosecond {
			t.Fatalf("64B@10G = %v, want 51ns", got)
		}
	}
}

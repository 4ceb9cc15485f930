package transport

import (
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

func TestMeterBuckets(t *testing.T) {
	m := NewMeter(simtime.Millisecond)
	m.Record(1000, 100*simtime.Microsecond)
	m.Record(1000, 900*simtime.Microsecond)
	m.Record(500, 2500*simtime.Microsecond)
	if m.BytesAt(0) != 2000 || m.BytesAt(1) != 0 || m.BytesAt(2) != 500 {
		t.Fatalf("buckets: %d %d %d", m.BytesAt(0), m.BytesAt(1), m.BytesAt(2))
	}
	if m.TotalBytes() != 2500 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
	// 2000 B in 1 ms = 16 Mbps = 0.016 Gbps.
	if g := m.GbpsAt(0); g < 0.0159 || g > 0.0161 {
		t.Fatalf("GbpsAt(0) = %v", g)
	}
	if len(m.GbpsSeries(5)) != 5 {
		t.Fatalf("series length wrong")
	}
	if m.BytesAt(-1) != 0 || m.BytesAt(99) != 0 {
		t.Fatalf("out-of-range buckets should be 0")
	}
}

func TestMeterGaps(t *testing.T) {
	m := NewMeter(simtime.Millisecond)
	m.Record(100, 0)
	m.Record(100, 200*simtime.Microsecond) // gap 200µs in bucket 0
	m.Record(100, 5*simtime.Millisecond)   // gap 4.8ms in bucket 5
	if m.MaxGapAt(0) != 200*simtime.Microsecond {
		t.Fatalf("MaxGapAt(0) = %v", m.MaxGapAt(0))
	}
	if m.MaxGapAt(5) != 4800*simtime.Microsecond {
		t.Fatalf("MaxGapAt(5) = %v", m.MaxGapAt(5))
	}
	if m.MaxGap() != 4800*simtime.Microsecond {
		t.Fatalf("MaxGap = %v", m.MaxGap())
	}
}

func TestMeterPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewMeter(0)
}

func buildDumbbell(t *testing.T, kind netsim.QueueKind) (*netsim.Network, *topo.Topology) {
	t.Helper()
	net := netsim.New()
	net.NewSwitchQueue = func() netsim.Queue { return netsim.NewQueue(kind, netsim.DefaultSwitchBufBytes) }
	tp := topo.Dumbbell(net, 4, 4, topo.Config{})
	return net, tp
}

func TestUDPRateAccuracy(t *testing.T) {
	net, tp := buildDumbbell(t, netsim.QueueFIFO)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	meter := NewMeter(simtime.Millisecond)
	dst.OnReceive(func(p *netsim.Packet, now simtime.Time) { meter.Record(p.Size, now) })
	s := StartUDP(net, src, UDPConfig{
		Flow:     netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2},
		RateBps:  500_000_000, // 0.5 Gbps, under the 1G bottleneck
		Start:    0,
		Duration: 20 * simtime.Millisecond,
	})
	net.Run()
	if s.Sent == 0 {
		t.Fatalf("no packets sent")
	}
	// 0.5 Gbps for 20 ms ≈ 1.25 MB.
	got := float64(meter.TotalBytes())
	want := 0.5e9 / 8 * 0.020
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("received %v bytes, want ≈%v", got, want)
	}
	// Mid-flow throughput ≈ 0.5 Gbps.
	if g := meter.GbpsAt(10); g < 0.45 || g > 0.55 {
		t.Fatalf("GbpsAt(10) = %v", g)
	}
}

func TestUDPDefaultsAndPanics(t *testing.T) {
	net, tp := buildDumbbell(t, netsim.QueueFIFO)
	src, _ := tp.HostByName("L1")
	s := StartUDP(net, src, UDPConfig{
		Flow: netsim.FlowKey{Src: src.IP(), Dst: tp.Hosts()[4].IP()}, RateBps: 1e9, Duration: simtime.Millisecond})
	if s.Config().PktSize != 1500 || s.Config().Flow.Proto != netsim.ProtoUDP {
		t.Fatalf("defaults not applied: %+v", s.Config())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("zero rate should panic")
		}
	}()
	StartUDP(net, src, UDPConfig{Flow: netsim.FlowKey{}, RateBps: 0})
}

func TestTCPBoundedTransferCompletes(t *testing.T) {
	net, tp := buildDumbbell(t, netsim.QueueFIFO)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	s, r := StartTCP(net, src, dst, TCPConfig{
		TotalBytes: 1 << 20, // 1 MB
	})
	net.RunUntil(simtime.Second)
	if !s.Done() {
		t.Fatalf("transfer did not complete: acked %d", r.cumAck)
	}
	if int64(r.cumAck) < 1<<20 {
		t.Fatalf("cumulative ack = %d", r.cumAck)
	}
	// 1 MB over an uncontended 1G path should take ~10 ms (slow start from
	// 10 segments), certainly under 100 ms.
	if s.CompletedAt > 100*simtime.Millisecond {
		t.Fatalf("completion too slow: %v", s.CompletedAt)
	}
	if s.Timeouts != 0 {
		t.Fatalf("unexpected timeouts: %d", s.Timeouts)
	}
}

func TestTCPSaturatesBottleneck(t *testing.T) {
	net, tp := buildDumbbell(t, netsim.QueueFIFO)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	meter := NewMeter(simtime.Millisecond)
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 100, DstPort: 200, Proto: netsim.ProtoTCP}
	dst.OnReceive(func(p *netsim.Packet, now simtime.Time) {
		if p.Flow == flow {
			meter.Record(p.Size, now)
		}
	})
	StartTCP(net, src, dst, TCPConfig{Flow: flow, Duration: 100 * simtime.Millisecond})
	net.RunUntil(110 * simtime.Millisecond)
	// Steady state (buckets 20–99) should be near line rate.
	var sum float64
	for i := 20; i < 100; i++ {
		sum += meter.GbpsAt(i)
	}
	avg := sum / 80
	if avg < 0.85 || avg > 1.01 {
		t.Fatalf("steady-state throughput = %.3f Gbps, want ≈0.95", avg)
	}
}

func TestTCPSharesFairlyEnough(t *testing.T) {
	// Two TCP flows over the same bottleneck should both make progress.
	net, tp := buildDumbbell(t, netsim.QueueFIFO)
	l1, _ := tp.HostByName("L1")
	l2, _ := tp.HostByName("L2")
	r1, _ := tp.HostByName("R1")
	r2, _ := tp.HostByName("R2")
	s1, _ := StartTCP(net, l1, r1, TCPConfig{Duration: 100 * simtime.Millisecond,
		Flow: netsim.FlowKey{Src: l1.IP(), Dst: r1.IP(), SrcPort: 1, DstPort: 1, Proto: netsim.ProtoTCP}})
	s2, _ := StartTCP(net, l2, r2, TCPConfig{Duration: 100 * simtime.Millisecond,
		Flow: netsim.FlowKey{Src: l2.IP(), Dst: r2.IP(), SrcPort: 2, DstPort: 2, Proto: netsim.ProtoTCP}})
	net.RunUntil(120 * simtime.Millisecond)
	b1, b2 := float64(s1.SentBytes), float64(s2.SentBytes)
	if b1 == 0 || b2 == 0 {
		t.Fatalf("a flow starved: %v %v", b1, b2)
	}
	ratio := b1 / b2
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("gross unfairness: %v vs %v", b1, b2)
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	// Tiny switch buffers force drops; TCP must still complete via fast
	// retransmit / RTO.
	net := netsim.New()
	net.NewSwitchQueue = func() netsim.Queue { return netsim.NewFIFOQueue(30_000) }
	// Fabric at half the NIC rate so the bottleneck queue actually builds.
	tp := topo.Dumbbell(net, 2, 2, topo.Config{FabricRateBps: 500_000_000})
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	s, r := StartTCP(net, src, dst, TCPConfig{
		TotalBytes: 2 << 20,
		RTOMin:     10 * simtime.Millisecond,
	})
	net.RunUntil(5 * simtime.Second)
	if !s.Done() {
		t.Fatalf("transfer did not complete under loss: acked %d, timeouts %d", r.cumAck, s.Timeouts)
	}
	if s.FastRetransmits+s.Timeouts == 0 {
		t.Fatalf("expected loss recovery events with a 30KB buffer")
	}
}

func TestTCPTimeoutUnderStarvation(t *testing.T) {
	// A high-priority blast long enough to stall the low-priority flow past
	// its RTO must produce a timeout — the extreme case of §2.1.
	net, tp := buildDumbbell(t, netsim.QueuePriority)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	udpSrc, _ := tp.HostByName("L2")
	udpDst, _ := tp.HostByName("R2")

	s, _ := StartTCP(net, src, dst, TCPConfig{
		Priority: 0,
		Duration: 200 * simtime.Millisecond,
		RTOMin:   10 * simtime.Millisecond,
		Flow:     netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 5, DstPort: 5, Proto: netsim.ProtoTCP},
	})
	// 40 ms of full-line-rate high-priority traffic starting at 30 ms.
	StartUDP(net, udpSrc, UDPConfig{
		Flow:     netsim.FlowKey{Src: udpSrc.IP(), Dst: udpDst.IP(), SrcPort: 7, DstPort: 7},
		Priority: 7,
		RateBps:  netsim.Rate1G,
		Start:    30 * simtime.Millisecond,
		Duration: 40 * simtime.Millisecond,
	})
	net.RunUntil(250 * simtime.Millisecond)
	if s.Timeouts == 0 {
		t.Fatalf("expected at least one TCP timeout under 40 ms starvation with 10 ms RTOmin")
	}
}

func TestTCPPriorityStarvationThroughputDip(t *testing.T) {
	// The Fig 2(a) shape in miniature: low-prio TCP throughput collapses
	// during a high-prio burst and recovers after.
	net, tp := buildDumbbell(t, netsim.QueuePriority)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	udpSrc, _ := tp.HostByName("L2")
	udpDst, _ := tp.HostByName("R2")

	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 9, DstPort: 9, Proto: netsim.ProtoTCP}
	meter := NewMeter(simtime.Millisecond)
	dst.OnReceive(func(p *netsim.Packet, now simtime.Time) {
		if p.Flow == flow {
			meter.Record(p.Size, now)
		}
	})
	StartTCP(net, src, dst, TCPConfig{Flow: flow, Duration: 100 * simtime.Millisecond})
	// 8 high-priority flows × 1 ms at 1G each starting at 50 ms.
	for i := 0; i < 8; i++ {
		StartUDP(net, udpSrc, UDPConfig{
			Flow:     netsim.FlowKey{Src: udpSrc.IP(), Dst: udpDst.IP(), SrcPort: uint16(100 + i), DstPort: 80},
			Priority: 7,
			RateBps:  netsim.Rate1G,
			Start:    50 * simtime.Millisecond,
			Duration: simtime.Millisecond,
		})
	}
	net.RunUntil(120 * simtime.Millisecond)
	before := meter.GbpsAt(45)
	// The burst injects 8×1ms×1G = 8ms of high-priority backlog; the low
	// priority flow is starved for several ms after t=50.
	during := meter.GbpsAt(54)
	after := meter.GbpsAt(90)
	if before < 0.8 {
		t.Fatalf("pre-burst throughput = %v", before)
	}
	if during > before/2 {
		t.Fatalf("no starvation dip: before=%.3f during=%.3f", before, during)
	}
	if after < 0.6 {
		t.Fatalf("no recovery: after=%.3f", after)
	}
}

func TestFlowMetersPerFlowSeparation(t *testing.T) {
	fm := NewFlowMeters(simtime.Millisecond)
	fa := netsim.FlowKey{Src: 1, Dst: 2, Proto: netsim.ProtoTCP}
	fb := netsim.FlowKey{Src: 3, Dst: 4, Proto: netsim.ProtoUDP}
	fm.Record(&netsim.Packet{Flow: fa, Size: 100}, 0)
	fm.Record(&netsim.Packet{Flow: fb, Size: 200}, 0)
	fm.Record(&netsim.Packet{Flow: fa, Size: 300}, simtime.Millisecond)
	if fm.Meter(fa).TotalBytes() != 400 || fm.Meter(fb).TotalBytes() != 200 {
		t.Fatalf("per-flow accounting wrong")
	}
	if ma, mb := fm.Meter(fa), fm.Meter(fb); ma.BytesAt(0) != 100 || ma.BytesAt(1) != 300 || mb.BytesAt(0) != 200 || mb.Buckets() != 1 {
		t.Fatalf("per-flow buckets wrong: %d/%d and %d over %d buckets", ma.BytesAt(0), ma.BytesAt(1), mb.BytesAt(0), mb.Buckets())
	}
	if fm.Meter(netsim.FlowKey{Src: 9}) != nil {
		t.Fatalf("unknown flow should be nil")
	}
}

func TestFlowMetersOnPort(t *testing.T) {
	net, tp := buildDumbbell(t, netsim.QueueFIFO)
	sl, _ := tp.SwitchByName("SL")
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	fm := NewFlowMeters(simtime.Millisecond)
	// Port 0 is the SL→SR fabric link (first connection in the builder).
	fm.AttachToPort(sl.Port(0))
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 1, Proto: netsim.ProtoUDP}
	StartUDP(net, src, UDPConfig{Flow: flow, RateBps: 1e8, Duration: 5 * simtime.Millisecond})
	net.Run()
	if fm.Meter(flow) == nil || fm.Meter(flow).TotalBytes() == 0 {
		t.Fatalf("port meter recorded nothing")
	}
}

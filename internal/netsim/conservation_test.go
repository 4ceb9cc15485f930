package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"switchpointer/internal/simtime"
)

// TestPropertyPacketConservation injects random traffic matrices into a
// random small fabric and checks conservation: every injected packet is
// either delivered, dropped (counted), or still queued when the run stops.
func TestPropertyPacketConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New()
		n.NewSwitchQueue = func() Queue {
			if rng.Intn(2) == 0 {
				return NewFIFOQueue(64 << 10) // small: force drops
			}
			return NewPriorityQueue(64 << 10)
		}
		nHosts := 2 + rng.Intn(4)
		sw := n.NewSwitch("s", 0)
		hosts := make([]*Host, nHosts)
		received := 0
		for i := range hosts {
			hosts[i] = n.NewHost(string(rune('a'+i)), IP(10, 0, 0, byte(i+1)))
			n.Connect(hosts[i], sw, LinkConfig{RateBps: Rate1G})
			sw.SetRoute(hosts[i].IP(), i)
			hosts[i].OnReceive(func(p *Packet, now simtime.Time) { received++ })
		}
		sent := 0
		for i := 0; i < 50+rng.Intn(200); i++ {
			src := hosts[rng.Intn(nHosts)]
			dst := hosts[rng.Intn(nHosts)]
			if src == dst {
				continue
			}
			at := simtime.Time(rng.Intn(1000)) * simtime.Microsecond
			pkt := &Packet{
				ID:       n.AllocPacketID(),
				Flow:     FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: uint16(i), DstPort: 1, Proto: ProtoUDP},
				Size:     64 + rng.Intn(1436),
				Priority: uint8(rng.Intn(8)),
			}
			sent++
			s := src
			n.Engine.At(at, func() { s.Send(pkt) })
		}
		n.Run()
		var drops uint64
		for _, pt := range sw.Ports() {
			drops += pt.Drops
		}
		for _, h := range hosts {
			drops += h.nic.Drops
		}
		return received+int(drops) == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFIFOOrderingPerPort checks that a FIFO egress port never
// reorders packets of the same flow.
func TestPropertyFIFOOrderingPerPort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New()
		src := n.NewHost("src", IP(10, 0, 0, 1))
		dst := n.NewHost("dst", IP(10, 0, 0, 2))
		sw := n.NewSwitch("s", 0)
		n.Connect(src, sw, LinkConfig{RateBps: Rate10G})
		n.Connect(sw, dst, LinkConfig{RateBps: Rate1G})
		sw.SetRoute(dst.IP(), 1)
		var got []uint64
		dst.OnReceive(func(p *Packet, now simtime.Time) { got = append(got, p.ID) })
		flow := FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 1, Proto: ProtoTCP}
		nPkts := 10 + rng.Intn(50)
		for i := 0; i < nPkts; i++ {
			id := uint64(i)
			at := simtime.Time(i) * simtime.Microsecond // ordered injection
			n.Engine.At(at, func() {
				src.Send(&Packet{ID: id, Flow: flow, Size: 200 + rng.Intn(1000)})
			})
		}
		n.Run()
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForwardPacket(b *testing.B) {
	n := New()
	src := n.NewHost("src", IP(10, 0, 0, 1))
	dst := n.NewHost("dst", IP(10, 0, 0, 2))
	sw := n.NewSwitch("s", 0)
	n.Connect(src, sw, LinkConfig{RateBps: Rate10G})
	n.Connect(sw, dst, LinkConfig{RateBps: Rate10G})
	sw.SetRoute(dst.IP(), 1)
	dst.OnReceive(func(p *Packet, now simtime.Time) {})
	flow := FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 1, Proto: ProtoUDP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(&Packet{ID: uint64(i), Flow: flow, Size: 1500})
		n.Run()
	}
}

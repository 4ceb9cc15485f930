package header

import (
	"fmt"
	"slices"
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// fuzzPacket builds the packet one FuzzDecode input describes: src and dst
// pick a host of tp (past the last host: that byte as a raw address, which
// no host has); in INT mode hops are (switch, epoch) byte pairs, up to 64;
// otherwise tags says which VLAN tags it carries — bit 0 the link tag, bit 1
// the epoch tag, bit 2 pushes the epoch tag first.
func fuzzPacket(tp *topo.Topology, intMode bool, src, dst, tags uint8, link, epoch uint32, hops []byte) *netsim.Packet {
	ip := func(b uint8) netsim.IPv4 {
		if hs := tp.Hosts(); int(b) < len(hs) {
			return hs[b].IP()
		}
		return netsim.IPv4(b)
	}
	p := &netsim.Packet{Flow: netsim.FlowKey{Src: ip(src), Dst: ip(dst), SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP}}
	if intMode {
		for i := 0; i+1 < len(hops) && i < 128; i += 2 {
			p.AppendINT(netsim.HopRecord{Switch: netsim.NodeID(hops[i]), Epoch: simtime.Epoch(int8(hops[i+1]))})
		}
		return p
	}
	linkTag := netsim.Tag{Type: netsim.TagLink, Value: link}
	epochTag := netsim.Tag{Type: netsim.TagEpoch, Value: epoch}
	if tags&4 != 0 && tags&2 != 0 {
		p.PushTag(epochTag)
		tags &^= 2
	}
	if tags&1 != 0 {
		p.PushTag(linkTag)
	}
	if tags&2 != 0 {
		p.PushTag(epochTag)
	}
	return p
}

// sameDecode reports whether two decodes agree: the same error text, or the
// same path, epoch ranges and tag index.
func sameDecode(a Decoded, aErr error, b Decoded, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return a.Mode == b.Mode && a.TagIdx == b.TagIdx && slices.Equal(a.Path, b.Path) && slices.Equal(a.Epochs, b.Epochs)
}

// walkFault says how a commodity decode's path for src→dst is not a walk a
// packet can take over tp — from the source's ToR to the destination's,
// between adjacent switches, no switch twice — or returns "".
func walkFault(tp *topo.Topology, src, dst netsim.IPv4, path []netsim.NodeID) string {
	srcTor, _ := tp.ToROf(src)
	dstTor, _ := tp.ToROf(dst)
	if len(path) == 0 || path[0] != srcTor.NodeID() || path[len(path)-1] != dstTor.NodeID() {
		return "it does not run from the source's ToR to the destination's"
	}
	for i, sw := range path {
		if slices.Index(path, sw) != i {
			return fmt.Sprintf("switch %d repeats", sw)
		}
		if i == 0 {
			continue
		}
		if _, ok := tp.LinkBetween(path[i-1], sw); !ok {
			return fmt.Sprintf("no link joins %d to %d", path[i-1], sw)
		}
	}
	return ""
}

// FuzzDecode drives the host-side decoder, over a k = 4 fat-tree and a
// 4-leaf leaf-spine, with commodity packets — link and epoch tags present,
// absent or half-present, in either order, with any link ID between any
// hosts — and INT packets with any stack. Decoding never panics; a
// commodity decode that succeeds gives a path a packet can take between its
// hosts' ToRs; and decoding through a per-flow PathMemo warmed by another
// packet of the flow (tagged with link warm) gives exactly what the
// memo-less Decode gives, on a miss and on the hit that follows.
func FuzzDecode(f *testing.F) {
	topos := []*topo.Topology{
		topo.FatTree(netsim.New(), 4, topo.Config{}),
		topo.LeafSpine(netsim.New(), 4, 2, 2, topo.Config{}),
	}
	p := params10()
	f.Fuzz(func(t *testing.T, intMode bool, src, dst, tags uint8, link, epoch, warm uint32, hops []byte, now int64) {
		mode := ModeCommodity
		if intMode {
			mode = ModeINT
		}
		clock := simtime.NewClock(0)
		at := simtime.Time(now % int64(simtime.Second<<20))
		for _, tp := range topos {
			pkt := fuzzPacket(tp, intMode, src, dst, tags, link, epoch, hops)
			ref := &Decoder{Topo: tp, Mode: mode, Params: p}
			want, wantErr := ref.Decode(pkt, at, clock)
			if wantErr == nil {
				want.Path, want.Epochs = slices.Clone(want.Path), slices.Clone(want.Epochs)
			}
			if wantErr == nil && !intMode { // an INT path is the packet's own stack
				if msg := walkFault(tp, pkt.Flow.Src, pkt.Flow.Dst, want.Path); msg != "" {
					t.Fatalf("%s: %s→%s over link %d decodes path %v: %s", tp.Name, pkt.Flow.Src, pkt.Flow.Dst, link, want.Path, msg)
				}
			}

			dec := &Decoder{Topo: tp, Mode: mode, Params: p}
			var memo PathMemo
			dec.DecodeMemo(fuzzPacket(tp, intMode, src, dst, 3, warm, epoch, hops), at, clock, &memo)
			for _, pass := range []string{"warmed", "refilled"} {
				got, err := dec.DecodeMemo(pkt, at, clock, &memo)
				if !sameDecode(got, err, want, wantErr) {
					t.Fatalf("%s: %s memo: decoded %+v, %v; memo-less Decode gives %+v, %v", tp.Name, pass, got, err, want, wantErr)
				}
			}
		}
	})
}

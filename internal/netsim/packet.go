// Package netsim is the discrete-event datacenter network simulator that
// SwitchPointer runs on in this reproduction: the substitute for the paper's
// physical testbed of commodity switches and servers.
//
// The simulator models hosts with rate-limited NICs, switches with per-output
// -port queues (drop-tail FIFO or strict priority), full-duplex links with
// bandwidth and propagation delay, and a per-switch forwarding pipeline to
// which SwitchPointer's datapath (pointer update + telemetry tagging) attaches
// as hooks. Everything runs on a single deterministic event engine in virtual
// time, so contention phenomena — priority starvation, microbursts, red-light
// accumulation, cascades — reproduce exactly across runs.
package netsim

import (
	"bytes"
	"strconv"
	"sync"

	"switchpointer/internal/simtime"
)

// IPv4 is an IPv4 address in host byte order. End hosts are identified by
// their IPv4 address throughout the system; it is the key of the minimal
// perfect hash at switches.
type IPv4 uint32

// IP builds an IPv4 address from its four octets.
func IP(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String formats the address in dotted-quad notation. It is called once per
// contacted host per query round (cost-model server names), so it builds the
// string directly instead of going through fmt.
func (ip IPv4) String() string {
	var buf [15]byte
	return string(ip.appendTo(buf[:0]))
}

func (ip IPv4) appendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(byte(ip>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(ip>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(ip>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(ip)), 10)
}

// Protocol is an IP protocol number.
type Protocol uint8

// Protocols used by the workloads.
const (
	ProtoTCP Protocol = 6
	ProtoUDP Protocol = 17
)

func (p Protocol) String() string {
	var buf [10]byte
	return string(p.appendTo(buf[:0]))
}

func (p Protocol) appendTo(b []byte) []byte {
	switch p {
	case ProtoTCP:
		return append(b, "TCP"...)
	case ProtoUDP:
		return append(b, "UDP"...)
	default:
		b = append(b, "proto("...)
		b = strconv.AppendUint(b, uint64(p), 10)
		return append(b, ')')
	}
}

// FlowKey is the usual 5-tuple identifying a flow. It is comparable and used
// as a map key everywhere (flow records, meters, diagnosis results).
type FlowKey struct {
	Src, Dst         IPv4
	SrcPort, DstPort uint16
	Proto            Protocol
}

// flowKeyStringMax bounds String's output: "proto(255) " plus two
// "255.255.255.255:65535" and "->" is 55 bytes.
const flowKeyStringMax = 64

// String formats the flow as "proto src:sport->dst:dport".
func (k FlowKey) String() string {
	var buf [flowKeyStringMax]byte
	return string(k.appendTo(buf[:0]))
}

func (k FlowKey) appendTo(b []byte) []byte {
	b = k.Proto.appendTo(b)
	b = append(b, ' ')
	b = k.Src.appendTo(b)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(k.SrcPort), 10)
	b = append(b, "->"...)
	b = k.Dst.appendTo(b)
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(k.DstPort), 10)
}

// CompareString orders two keys as their String forms order — the tie-break
// every report sorts by — without building either string.
func (k FlowKey) CompareString(o FlowKey) int {
	var a, b [flowKeyStringMax]byte
	return bytes.Compare(k.appendTo(a[:0]), o.appendTo(b[:0]))
}

// Reverse returns the 5-tuple of the opposite direction (used for ACKs).
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// TCP header flag bits carried by simulated packets.
const (
	FlagSYN uint8 = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// TagType distinguishes the two 802.1ad VLAN tags SwitchPointer pushes in
// commodity mode (§4.1.3): the CherryPick link identifier and the epoch
// identifier of the tagging switch.
type TagType uint8

// Tag types.
const (
	TagNone  TagType = iota
	TagLink          // CherryPick key-link ID
	TagEpoch         // epochID at the tagging switch
)

// Tag is one VLAN tag on the packet's tag stack. Real 802.1ad tags carry a
// 12-bit VID; the paper's technique packs the linkID or epochID (mod 2^12)
// into it. We keep the full value and account header bytes separately.
type Tag struct {
	Type  TagType
	Value uint32
}

// HopRecord is one entry of the INT-style telemetry stack (clean-slate mode):
// the switch that forwarded the packet and its local epoch at that instant.
type HopRecord struct {
	Switch NodeID
	Epoch  simtime.Epoch
}

// VLANTagBytes is the wire overhead of one 802.1Q/802.1ad tag.
const VLANTagBytes = 4

// INTHopBytes is the wire overhead of one INT hop record (switchID+epoch).
const INTHopBytes = 8

// Packet is a simulated packet. Size is the full on-wire size in bytes and
// is what serialization delay and queue occupancy are computed from; when
// telemetry headers are pushed, Size grows accordingly.
//
// Packets on the hot datapath are pooled: transports allocate with
// AllocPacket and the simulator releases them back to the pool at their
// terminal point (delivery to a host, or any drop). Receive handlers must
// not retain a packet past their return; copy what they need into their own
// state (the host agent's record absorption already does). Packets built
// with a plain composite literal are never pooled and Release ignores them.
type Packet struct {
	ID       uint64
	Flow     FlowKey
	Priority uint8 // DSCP class: higher value = higher priority
	Size     int   // total on-wire bytes
	Payload  int   // transport payload bytes

	// TCP fields (ignored for UDP).
	Seq   uint32
	Ack   uint32
	Flags uint8

	// Telemetry carried in-band.
	Tags [2]Tag // commodity mode: [linkID, epochID]
	NTag int
	INT  []HopRecord // clean-slate mode

	SentAt simtime.Time // stamped by the sender's transport

	hops   int  // switch traversals, for the routing-loop guard
	pooled bool // came from the packet pool; Release returns it there
}

// pktPool recycles packets (and their INT capacity) across the simulation's
// send→deliver/drop lifecycle. sync.Pool keeps the steady-state per-packet
// path allocation-free while remaining safe if packets are ever allocated
// from multiple goroutines.
var pktPool = sync.Pool{New: func() any { return new(Packet) }}

// AllocPacket returns a zeroed packet from the pool. The INT slice capacity
// of the recycled packet is retained, so steady-state INT-mode telemetry
// appends without reallocating.
func AllocPacket() *Packet {
	p := pktPool.Get().(*Packet)
	intBuf := p.INT
	*p = Packet{INT: intBuf[:0], pooled: true}
	return p
}

// Release returns a pooled packet to the pool. It is a no-op for packets not
// obtained from AllocPacket or Clone, so tests that build packets with
// composite literals interoperate freely with the pooled datapath. Callers
// must not touch the packet after releasing it.
func (p *Packet) Release() {
	if !p.pooled {
		return
	}
	p.pooled = false
	pktPool.Put(p)
}

// PushTag appends a VLAN tag to the stack and grows the wire size. It panics
// when more than two tags are pushed: 802.1ad double-tagging is the
// commodity-switch limit the paper designs around.
func (p *Packet) PushTag(tag Tag) {
	if p.NTag >= len(p.Tags) {
		panic("netsim: VLAN tag stack overflow (802.1ad allows two tags)")
	}
	p.Tags[p.NTag] = tag
	p.NTag++
	p.Size += VLANTagBytes
}

// TagOf returns the first tag of the given type and whether it exists.
func (p *Packet) TagOf(t TagType) (Tag, bool) {
	for i := 0; i < p.NTag; i++ {
		if p.Tags[i].Type == t {
			return p.Tags[i], true
		}
	}
	return Tag{}, false
}

// AppendINT appends an INT hop record and grows the wire size. On pooled
// packets the INT slice reuses recycled capacity, so at steady state the
// append does not allocate.
func (p *Packet) AppendINT(rec HopRecord) {
	p.INT = append(p.INT, rec)
	p.Size += INTHopBytes
}

// Clone returns a deep copy of the packet (used by tests and by fan-out
// tooling; the datapath itself never copies packets). The clone comes from
// the packet pool and reuses recycled INT capacity, so a steady-state
// clone/Release cycle performs zero heap allocations; release clones with
// Release when done.
func (p *Packet) Clone() *Packet {
	c := pktPool.Get().(*Packet)
	intBuf := c.INT
	*c = *p
	c.pooled = true
	c.INT = append(intBuf[:0], p.INT...)
	return c
}

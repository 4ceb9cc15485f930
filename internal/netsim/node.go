package netsim

import (
	"fmt"

	"switchpointer/internal/simtime"
)

// NodeID identifies a switch or host in the simulated network. Switches and
// hosts share one ID space so telemetry records can name either.
type NodeID int32

// Node is a network element that owns ports and consumes packets.
type Node interface {
	NodeID() NodeID
	NodeName() string
	attach(pt *Port)
	deliver(p *Packet, in *Port, now simtime.Time)
}

// PipelineFunc is one stage of a switch's forwarding pipeline, invoked after
// the routing decision and before the packet is enqueued on the output port.
// SwitchPointer's datapath — the MPH pointer update and the telemetry tag
// push — attaches here, exactly where the paper inserts it into the OVS
// pipeline.
type PipelineFunc func(sw *Switch, p *Packet, in, out *Port, now simtime.Time)

// Switch is a simulated output-queued switch.
type Switch struct {
	id    NodeID
	name  string
	net   *Network
	Clock *simtime.Clock

	ports  []*Port
	routes map[IPv4]int

	// RouteOverride, when non-nil, is consulted before the routing table.
	// Scenario code uses it to model misbehaving switches (e.g. the
	// flow-size-based load-imbalance malfunction of §5.4).
	RouteOverride func(sw *Switch, p *Packet) (outPort int, ok bool)

	// Pipeline stages run in order on every forwarded packet.
	Pipeline []PipelineFunc

	// ForwardedPkts counts packets the switch routed (not dropped for lack
	// of route or TTL).
	ForwardedPkts uint64
	// NoRouteDrops counts packets with no matching route.
	NoRouteDrops uint64
	// TTLDrops counts packets discarded by the loop guard.
	TTLDrops uint64
}

// NodeID implements Node.
func (s *Switch) NodeID() NodeID { return s.id }

// NodeName implements Node.
func (s *Switch) NodeName() string { return s.name }

func (s *Switch) attach(pt *Port) {
	pt.index = len(s.ports)
	s.ports = append(s.ports, pt)
}

// Ports returns the switch's ports in attachment order.
func (s *Switch) Ports() []*Port { return s.ports }

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// SetRoute installs dst → out-port in the routing table.
//
// Routes are static once traffic flows: every route is installed before
// the first packet is sent, and none changes after. Host-side telemetry
// decoding memoizes path reconstruction per (src, dst, link) and relies on
// that (header.Decoder, and the per-flow PathMemo each host agent keeps in
// its flow table); a route changed mid-run would have stale
// trajectories silently attributed to new packets.
func (s *Switch) SetRoute(dst IPv4, outPort int) {
	if s.routes == nil {
		s.routes = make(map[IPv4]int)
	}
	if outPort < 0 || outPort >= len(s.ports) {
		panic(fmt.Sprintf("netsim: switch %s route to invalid port %d", s.name, outPort))
	}
	s.routes[dst] = outPort
}

// RouteTo returns the configured output port for dst.
func (s *Switch) RouteTo(dst IPv4) (int, bool) {
	out, ok := s.routes[dst]
	return out, ok
}

// deliver implements Node: route, run the pipeline, enqueue on egress.
func (s *Switch) deliver(p *Packet, in *Port, now simtime.Time) {
	if p.hops >= maxHops {
		s.TTLDrops++
		if s.net.OnDrop != nil {
			s.net.OnDrop(p, in, now)
		}
		p.Release()
		return
	}
	p.hops++

	out := -1
	if s.RouteOverride != nil {
		if o, ok := s.RouteOverride(s, p); ok {
			out = o
		}
	}
	if out < 0 {
		o, ok := s.routes[p.Flow.Dst]
		if !ok {
			s.NoRouteDrops++
			if s.net.OnDrop != nil {
				s.net.OnDrop(p, in, now)
			}
			p.Release()
			return
		}
		out = o
	}
	if out < 0 || out >= len(s.ports) {
		s.NoRouteDrops++
		p.Release()
		return
	}
	outPort := s.ports[out]
	for _, stage := range s.Pipeline {
		stage(s, p, in, outPort, now)
	}
	s.ForwardedPkts++
	outPort.send(p)
}

// maxHops bounds the number of switch traversals per packet; exceeding it
// indicates a routing loop in a scenario and drops the packet.
const maxHops = 64

// ReceiveFunc consumes packets arriving at a host NIC.
type ReceiveFunc func(p *Packet, now simtime.Time)

// Host is a simulated end host with one NIC. The host side of SwitchPointer
// (telemetry decoding, flow records, triggers) subscribes to arriving packets
// with OnReceive; transports send with Send.
type Host struct {
	id    NodeID
	name  string
	ip    IPv4
	net   *Network
	Clock *simtime.Clock

	nic      *Port
	handlers []ReceiveFunc
}

// NodeID implements Node.
func (h *Host) NodeID() NodeID { return h.id }

// NodeName implements Node.
func (h *Host) NodeName() string { return h.name }

// IP returns the host's address.
func (h *Host) IP() IPv4 { return h.ip }

func (h *Host) attach(pt *Port) {
	if h.nic != nil {
		panic(fmt.Sprintf("netsim: host %s already has a NIC", h.name))
	}
	pt.index = 0
	h.nic = pt
}

// OnReceive registers fn to observe every packet arriving at the host, in
// registration order.
func (h *Host) OnReceive(fn ReceiveFunc) { h.handlers = append(h.handlers, fn) }

// Send transmits a packet out of the host NIC.
func (h *Host) Send(p *Packet) {
	if h.nic == nil {
		panic(fmt.Sprintf("netsim: host %s is not connected", h.name))
	}
	h.nic.send(p)
}

// deliver implements Node. Delivery to a host is a packet's terminal point:
// after every receive handler has seen it, a pooled packet is recycled.
// Handlers must therefore not retain the packet past their return.
func (h *Host) deliver(p *Packet, in *Port, now simtime.Time) {
	for _, fn := range h.handlers {
		fn(p, now)
	}
	p.Release()
}

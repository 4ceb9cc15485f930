package netsim

import (
	"fmt"

	"switchpointer/internal/eventq"
	"switchpointer/internal/simtime"
)

// Network owns the simulated elements and the event engine driving them.
type Network struct {
	Engine *eventq.Engine

	switches []*Switch
	hosts    []*Host
	byID     map[NodeID]Node
	byIP     map[IPv4]*Host
	nextID   NodeID
	nextPkt  uint64

	// NewSwitchQueue builds the egress queue for each switch port created by
	// Connect. Defaults to a 2 MB drop-tail FIFO; scenarios override it to
	// select priority queueing (§2.1) or different buffer depths.
	NewSwitchQueue func() Queue

	// NewHostQueue builds the egress queue for host NICs. Defaults to a
	// deep FIFO (hosts pace themselves; the NIC should rarely drop).
	NewHostQueue func() Queue

	// OnDrop observes every dropped packet (buffer overflow, no route, TTL).
	OnDrop func(p *Packet, at *Port, now simtime.Time)
}

// Default queue capacities.
const (
	DefaultSwitchBufBytes = 2 << 20 // 2 MB per output port, shallow-buffer ToR
	DefaultHostBufBytes   = 8 << 20
)

// New returns an empty network with a fresh event engine.
func New() *Network {
	n := &Network{
		Engine: eventq.New(),
		byID:   make(map[NodeID]Node),
		byIP:   make(map[IPv4]*Host),
	}
	n.NewSwitchQueue = func() Queue { return NewFIFOQueue(DefaultSwitchBufBytes) }
	n.NewHostQueue = func() Queue { return NewFIFOQueue(DefaultHostBufBytes) }
	return n
}

// Now returns the current virtual time.
func (n *Network) Now() simtime.Time { return n.Engine.Now() }

// NewSwitch creates a switch with the given name and clock offset (its drift
// from true time; the network-wide pairwise bound is ε).
func (n *Network) NewSwitch(name string, clockOffset simtime.Time) *Switch {
	s := &Switch{
		id:    n.allocID(),
		name:  name,
		net:   n,
		Clock: simtime.NewClock(clockOffset),
	}
	n.switches = append(n.switches, s)
	n.byID[s.id] = s
	return s
}

// NewHost creates a host with the given name and IP address.
func (n *Network) NewHost(name string, ip IPv4) *Host {
	if _, dup := n.byIP[ip]; dup {
		panic(fmt.Sprintf("netsim: duplicate host IP %s", ip))
	}
	h := &Host{
		id:    n.allocID(),
		name:  name,
		ip:    ip,
		net:   n,
		Clock: simtime.NewClock(0),
	}
	n.hosts = append(n.hosts, h)
	n.byID[h.id] = h
	n.byIP[ip] = h
	return h
}

func (n *Network) allocID() NodeID {
	id := n.nextID
	n.nextID++
	return id
}

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// NodeByID looks up a node.
func (n *Network) NodeByID(id NodeID) (Node, bool) {
	nd, ok := n.byID[id]
	return nd, ok
}

// LinkConfig describes one full-duplex link.
type LinkConfig struct {
	RateBps int64        // per-direction bandwidth
	Delay   simtime.Time // propagation delay
	// QueueA/QueueB override the egress queues of the A-side and B-side
	// ports; nil selects the network default for the node kind.
	QueueA, QueueB Queue
}

// Gigabit link rates used by the scenarios.
const (
	Rate1G  int64 = 1_000_000_000
	Rate10G int64 = 10_000_000_000
)

// Connect wires a full-duplex link between two nodes and returns the two
// ports (a-side, b-side).
func (n *Network) Connect(a, b Node, cfg LinkConfig) (*Port, *Port) {
	if cfg.RateBps <= 0 {
		panic("netsim: link rate must be positive")
	}
	pa := &Port{owner: a, net: n, rateBps: cfg.RateBps, delay: cfg.Delay, queue: cfg.QueueA}
	pb := &Port{owner: b, net: n, rateBps: cfg.RateBps, delay: cfg.Delay, queue: cfg.QueueB}
	if pa.queue == nil {
		pa.queue = n.defaultQueueFor(a)
	}
	if pb.queue == nil {
		pb.queue = n.defaultQueueFor(b)
	}
	pa.peer, pb.peer = pb, pa
	a.attach(pa)
	b.attach(pb)
	return pa, pb
}

func (n *Network) defaultQueueFor(nd Node) Queue {
	if _, isHost := nd.(*Host); isHost {
		return n.NewHostQueue()
	}
	return n.NewSwitchQueue()
}

// AllocPacketID returns a fresh unique packet ID.
func (n *Network) AllocPacketID() uint64 {
	n.nextPkt++
	return n.nextPkt
}

// Run drains all pending events.
func (n *Network) Run() { n.Engine.Run() }

// RunUntil advances the simulation to absolute virtual time t.
func (n *Network) RunUntil(t simtime.Time) { n.Engine.RunUntil(t) }

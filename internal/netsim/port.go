package netsim

import (
	"switchpointer/internal/simtime"
)

// Port is one end of a full-duplex link. Each direction has its own egress
// queue and transmitter, so A→B traffic never blocks B→A. Serialization
// delay is Size·8/rate; the packet then propagates for the link delay and is
// delivered to the peer's owning node.
type Port struct {
	owner Node
	index int // port number on the owning node
	net   *Network

	queue   Queue
	rateBps int64
	delay   simtime.Time
	peer    *Port

	// Per-packet transmission is allocation-free and costs one event per
	// packet on an uncongested link: instead of capturing the packet in
	// per-event closures, the port keeps a FIFO of packets in flight
	// (serializing or propagating) and schedules each packet's arrival at
	// the instant its serialization starts. The transmitter's availability
	// is tracked as a timestamp (freeAt); a separate drain event exists
	// only while packets are actually waiting behind the transmitter. FIFO
	// order is correct because transmit starts are non-decreasing in time,
	// so arrivals over a constant-delay link are non-decreasing too, and
	// the engine breaks equal-time ties in schedule order.
	freeAt         simtime.Time
	drainScheduled bool
	propagating    pktRing
	drainFn        func() // transmitter became free with work queued
	arriveFn       func() // head of `propagating` reached the peer

	// Counters (egress unless noted). These are the per-port counters that
	// in-network baseline techniques sample.
	TxBytes uint64
	TxPkts  uint64
	RxBytes uint64
	RxPkts  uint64
	Drops   uint64

	// OnTransmit, when set, observes every packet at the instant its
	// serialization onto the wire begins. Experiments attach per-flow
	// throughput meters here (e.g. "throughput of flow A-F at S1", Fig 3).
	OnTransmit func(p *Packet, now simtime.Time)
}

// Owner returns the node the port belongs to.
func (pt *Port) Owner() Node { return pt.owner }

// Index returns the port number on its owning node.
func (pt *Port) Index() int { return pt.index }

// Peer returns the port at the other end of the link.
func (pt *Port) Peer() *Port { return pt.peer }

// RateBps returns the link rate in bits per second.
func (pt *Port) RateBps() int64 { return pt.rateBps }

// QueueBytes returns the instantaneous egress queue depth in bytes.
func (pt *Port) QueueBytes() int { return pt.queue.Bytes() }

// send places p on the egress queue and kicks the transmitter. Drops are
// counted and reported to the network's OnDrop hook.
func (pt *Port) send(p *Packet) {
	if !pt.queue.Enqueue(p) {
		pt.Drops++
		if pt.net.OnDrop != nil {
			pt.net.OnDrop(p, pt, pt.net.Engine.Now())
		}
		p.Release()
		return
	}
	if pt.drainScheduled {
		return // transmitter busy, wakeup already booked
	}
	now := pt.net.Engine.Now()
	if now >= pt.freeAt {
		pt.transmitNext()
		return
	}
	pt.scheduleDrain()
}

func (pt *Port) scheduleDrain() {
	if pt.drainFn == nil {
		pt.drainFn = pt.drain
	}
	pt.drainScheduled = true
	pt.net.Engine.At(pt.freeAt, pt.drainFn)
}

// drain fires when the transmitter becomes free with packets waiting.
func (pt *Port) drain() {
	pt.drainScheduled = false
	pt.transmitNext()
}

// transmitNext pops the next packet and models serialization + propagation.
// The packet's arrival at the peer is scheduled immediately (serialization
// time plus propagation delay); a drain event is booked only when more
// packets are waiting behind the transmitter.
func (pt *Port) transmitNext() {
	p := pt.queue.Dequeue()
	if p == nil {
		return
	}
	now := pt.net.Engine.Now()
	pt.TxBytes += uint64(p.Size)
	pt.TxPkts++
	if pt.OnTransmit != nil {
		pt.OnTransmit(p, now)
	}
	txTime := serializationTime(p.Size, pt.rateBps)
	pt.freeAt = now + txTime
	if pt.queue.Len() > 0 {
		pt.scheduleDrain()
	}
	if pt.arriveFn == nil {
		pt.arriveFn = pt.arrive
	}
	pt.propagating.push(p)
	pt.net.Engine.After(txTime+pt.delay, pt.arriveFn)
}

// arrive fires when the oldest propagating packet reaches the peer.
func (pt *Port) arrive() {
	pt.peer.receive(pt.propagating.pop())
}

// receive hands an arriving packet to the owning node.
func (pt *Port) receive(p *Packet) {
	pt.RxBytes += uint64(p.Size)
	pt.RxPkts++
	pt.owner.deliver(p, pt, pt.net.Engine.Now())
}

// serializationTime returns the time to clock size bytes onto a link of the
// given rate.
func serializationTime(size int, rateBps int64) simtime.Time {
	if rateBps <= 0 {
		panic("netsim: non-positive link rate")
	}
	return simtime.Time(int64(size) * 8 * int64(simtime.Second) / rateBps)
}

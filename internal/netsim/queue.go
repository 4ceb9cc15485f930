package netsim

// Queue is the discipline of one switch output port. Implementations must be
// cheap: Enqueue/Dequeue run once per forwarded packet.
//
// The paper's experiments use two disciplines: strict priority (the Pica8
// configuration that delays low-priority packets whenever a high-priority
// packet is present, §2.1) and plain FIFO (the microburst configuration).
type Queue interface {
	// Enqueue adds the packet; it reports false when the packet was dropped
	// (buffer full).
	Enqueue(p *Packet) bool
	// Dequeue removes and returns the next packet to transmit, or nil.
	Dequeue() *Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the total queued bytes.
	Bytes() int
}

// pktRing is an amortized-O(1) FIFO of packets. Its buffer length is zero
// or a power of two (see grow), so indices wrap with a mask.
type pktRing struct {
	buf        []*Packet
	head, tail int
	n          int
	bytes      int
}

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = p
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.n++
	r.bytes += p.Size
}

func (r *pktRing) pop() *Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.bytes -= p.Size
	return p
}

// grow doubles the buffer from 16, which keeps its length a power of two.
func (r *pktRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	nb := make([]*Packet, size)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = nb
	r.head = 0
	r.tail = r.n
}

// FIFOQueue is a drop-tail FIFO bounded by bytes.
type FIFOQueue struct {
	capBytes int
	ring     pktRing
}

// NewFIFOQueue returns a drop-tail FIFO holding at most capBytes of packets.
func NewFIFOQueue(capBytes int) *FIFOQueue {
	if capBytes <= 0 {
		panic("netsim: non-positive queue capacity")
	}
	return &FIFOQueue{capBytes: capBytes}
}

// Enqueue implements Queue.
func (q *FIFOQueue) Enqueue(p *Packet) bool {
	if q.ring.bytes+p.Size > q.capBytes {
		return false
	}
	q.ring.push(p)
	return true
}

// Dequeue implements Queue.
func (q *FIFOQueue) Dequeue() *Packet { return q.ring.pop() }

// Len implements Queue.
func (q *FIFOQueue) Len() int { return q.ring.n }

// Bytes implements Queue.
func (q *FIFOQueue) Bytes() int { return q.ring.bytes }

// NumPriorityBands is the number of strict-priority classes (DSCP 0–7).
const NumPriorityBands = 8

// PriorityQueue is a strict-priority discipline with NumPriorityBands
// drop-tail bands sharing one byte budget. Dequeue always serves the highest
// non-empty band, which is exactly the behaviour that produces the paper's
// low-priority starvation in Figure 2(a).
type PriorityQueue struct {
	capBytes int
	bytes    int
	bands    [NumPriorityBands]pktRing
}

// NewPriorityQueue returns a strict-priority queue with a shared byte budget.
func NewPriorityQueue(capBytes int) *PriorityQueue {
	if capBytes <= 0 {
		panic("netsim: non-positive queue capacity")
	}
	return &PriorityQueue{capBytes: capBytes}
}

// Enqueue implements Queue.
func (q *PriorityQueue) Enqueue(p *Packet) bool {
	if q.bytes+p.Size > q.capBytes {
		return false
	}
	band := int(p.Priority)
	if band >= NumPriorityBands {
		band = NumPriorityBands - 1
	}
	q.bands[band].push(p)
	q.bytes += p.Size
	return true
}

// Dequeue implements Queue.
func (q *PriorityQueue) Dequeue() *Packet {
	for b := NumPriorityBands - 1; b >= 0; b-- {
		if q.bands[b].n > 0 {
			p := q.bands[b].pop()
			q.bytes -= p.Size
			return p
		}
	}
	return nil
}

// Len implements Queue.
func (q *PriorityQueue) Len() int {
	n := 0
	for b := range q.bands {
		n += q.bands[b].n
	}
	return n
}

// Bytes implements Queue.
func (q *PriorityQueue) Bytes() int { return q.bytes }

// QueueKind selects a discipline when building testbeds.
type QueueKind uint8

// Supported queue disciplines.
const (
	QueueFIFO QueueKind = iota
	QueuePriority
)

// NewQueue builds a queue of the given kind and capacity.
func NewQueue(kind QueueKind, capBytes int) Queue {
	switch kind {
	case QueuePriority:
		return NewPriorityQueue(capBytes)
	default:
		return NewFIFOQueue(capBytes)
	}
}

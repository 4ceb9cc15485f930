package eventq

import (
	"math/bits"

	"switchpointer/internal/simtime"
)

// radixQueue is the engine's scheduling queue: a radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, 1990) over the pending events' virtual times.
// An event at time at waits in bucket bits.Len64(at ^ last), where last is a
// lower bound on every pending time, so bucket 0 holds exactly the events
// due at last and bucket b > 0 those whose highest bit differing from last
// is bit b-1.
//
// Buckets are FIFO lists threaded through the arena's event.next link, and
// bit b of mask says whether bucket b is non-empty (head and tail of an
// empty bucket are stale). Virtual times are never negative, so bucket 64,
// which mask cannot mark, is never used: it is there so that indexing by
// bits.Len64 needs no bounds check.
type radixQueue struct {
	last       simtime.Time
	n          int // events queued, cancelled ones included
	mask       uint64
	head, tail [65]int32
}

// push queues arena slot i at a[i].at. A time below last — possible only
// when RunUntil has looked past its horizon and the caller then schedules
// before what it saw — first re-buckets every pending event around it.
func (q *radixQueue) push(a []event, i int32) {
	if at := a[i].at; at < q.last {
		q.spread(a, q.chain(a), at)
	}
	q.append(a, i)
	q.n++
}

// pop removes and returns the earliest slot, the first scheduled among
// ties. Callers must check n > 0.
func (q *radixQueue) pop(a []event) int32 {
	q.fill(a)
	i := q.head[0]
	if i == q.tail[0] {
		q.mask &^= 1
	} else {
		q.head[0] = a[i].next
	}
	q.n--
	return i
}

// peek returns the slot pop would return, leaving it queued. Callers must
// check n > 0.
func (q *radixQueue) peek(a []event) int32 {
	q.fill(a)
	return q.head[0]
}

// fill makes bucket 0 non-empty: when it is empty, the lowest non-empty
// bucket is redistributed, in order, around its own minimum. Every event in
// it lands in a lower bucket, and those are all empty.
func (q *radixQueue) fill(a []event) {
	if q.mask&1 != 0 {
		return
	}
	b := bits.TrailingZeros64(q.mask)
	first := q.head[b]
	q.mask &^= 1 << b
	lo := a[first].at
	for i := a[first].next; i != noEvent; i = a[i].next {
		lo = min(lo, a[i].at)
	}
	q.spread(a, first, lo)
}

// chain links every bucket, lowest first, into one list, empties the
// buckets and returns the list's head.
func (q *radixQueue) chain(a []event) int32 {
	first, prev := noEvent, noEvent
	for m := q.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if prev == noEvent {
			first = q.head[b]
		} else {
			a[prev].next = q.head[b]
		}
		prev = q.tail[b]
	}
	q.mask = 0
	return first
}

// spread moves last to the given bound and appends the list starting at i,
// in list order, to the buckets around it.
func (q *radixQueue) spread(a []event, i int32, last simtime.Time) {
	q.last = last
	for i != noEvent {
		next := a[i].next
		q.append(a, i)
		i = next
	}
}

// append links slot i at the tail of its bucket. Appending is what keeps
// ties in schedule order: equal times always share a bucket.
func (q *radixQueue) append(a []event, i int32) {
	b := bits.Len64(uint64(a[i].at ^ q.last))
	a[i].next = noEvent
	if q.mask&(1<<b) == 0 {
		q.head[b] = i
		q.mask |= 1 << b
	} else {
		a[q.tail[b]].next = i
	}
	q.tail[b] = i
}

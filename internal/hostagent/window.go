package hostagent

import "switchpointer/internal/simtime"

// windowSlots is how many buckets a rateWindow holds. A trigger tick at
// bucket b reads buckets b-2 and b-1, and no packet recorded before it lies
// past b, so a read is at most two buckets behind the newest write: with
// three slots or more, no newer bucket has yet taken the slot a read needs.
// Four makes the slot a mask.
const windowSlots = 4

// rateWindow is a flow's arrival byte count over its last windowSlots
// buckets of a fixed width — the two the throughput trigger compares, and
// nothing older. Bucket i lives in slot i mod windowSlots, tagged with i; a
// slot whose tag is another bucket reads as zero, as a bucket no packet
// reached does.
type rateWindow struct {
	bytes  [windowSlots]uint64
	bucket [windowSlots]int // the bucket each slot holds
}

// record accounts bytes to bucket i, which is never older than a bucket
// already recorded.
func (w *rateWindow) record(bytes, i int) {
	s := i & (windowSlots - 1)
	if w.bucket[s] != i {
		w.bucket[s], w.bytes[s] = i, 0
	}
	w.bytes[s] += uint64(bytes)
}

// gbps returns bucket i's average throughput in Gbit/s for buckets interval
// wide: the expression transport.Meter.GbpsAt uses, so both read the same
// float for the same bytes.
func (w *rateWindow) gbps(i int, interval simtime.Time) float64 {
	s := i & (windowSlots - 1)
	var b uint64
	if w.bucket[s] == i {
		b = w.bytes[s]
	}
	return float64(b) * 8 / float64(interval)
}

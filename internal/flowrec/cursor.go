package flowrec

import (
	"math"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// Cursor reads the records of one encoded segment in place. Next steps onto
// the next record, checking it as DecodeSegment checks a record, and the
// accessors answer from its bytes: nothing is allocated and no Record is
// filled. The first fault sticks: Next returns false from then on and Err
// says why. A walk that reaches the end also checks the body against the
// header's counts, so a segment walks to the end without error exactly when
// DecodeSegment decodes it. The accessors are valid while the last Next
// returned true.
//
//	c := NewCursor(seg)
//	for c.Next() {
//		use(c.Flow(), c.BytesIn(window))
//	}
//	if err := c.Err(); err != nil { ... }
type Cursor struct {
	reader            // the body past the current record
	left, n       int // records the header still declares, and in all
	npath, nepoch int // paths and epoch ranges it still declares
	err           error

	rec                 []byte // the current record's encoding
	bytes               uint64
	link                topo.LinkID
	path, epochs, pairs list
}

// list is where one of a record's lists lies within its encoding: its count
// at cnt, its first entry at at, and how many entries it holds.
type list struct{ cnt, at, n int }

// NewCursor returns a cursor before the first record of segment seg. A
// header that cannot be seg's is the cursor's error at once.
func NewCursor(seg []byte) Cursor {
	body, nrec, npath, nepoch, err := segmentBody(seg)
	return Cursor{reader: reader{b: body}, left: nrec, n: nrec, npath: npath, nepoch: nepoch, err: err}
}

// Len returns how many records the segment's header declares (0 when the
// header is corrupt).
func (c *Cursor) Len() int { return c.n }

// Err returns the fault that stopped the walk, if any.
func (c *Cursor) Err() error { return c.err }

// Next steps onto the next record and reports whether there is one.
func (c *Cursor) Next() bool {
	c.rec = nil
	if c.err != nil {
		return false
	}
	if c.left == 0 {
		if c.bad || len(c.b) != 0 || c.npath != 0 || c.nepoch != 0 {
			c.err = errCorruptBody
		}
		return false
	}
	c.left--
	start := c.b
	if len(start) < fixedRecordLen {
		c.err = errCorruptBody
		return false
	}
	r := reader{b: start[fixedRecordLen:]} // a local the loops keep in registers
	r.uvarint()                            // TagIdx
	c.link = topo.LinkID(r.bounded(math.MaxUint32))
	c.bytes = r.uvarint()
	r.uvarint() // Pkts
	r.uvarint() // FirstSeen
	r.uvarint() // LastSeen
	cnt := len(start) - len(r.b)
	n := int(r.bounded(uint64(c.npath)))
	c.npath -= n
	c.path = list{cnt, len(start) - len(r.b), n}
	for range n {
		r.bounded(math.MaxUint32)
	}
	cnt = len(start) - len(r.b)
	n = int(r.bounded(uint64(c.nepoch)))
	c.nepoch -= n
	c.epochs = list{cnt, len(start) - len(r.b), n}
	for range 2 * n {
		r.uvarint()
	}
	// 0 = nil EpochBytes, else entries+1; an entry takes two bytes or more.
	cnt = len(start) - len(r.b)
	n = int(r.bounded(uint64(len(r.b)/2) + 1))
	c.pairs = list{cnt, len(start) - len(r.b), max(n-1, 0)}
	for j, prev := 1, simtime.Epoch(0); j < n; j++ {
		e := simtime.Epoch(zigzag(r.uvarint()))
		r.bad = r.bad || (j > 1 && e <= prev) // the encoder's list is sorted
		r.uvarint()
		prev = e
	}
	if c.reader = r; r.bad {
		c.err = errCorruptBody
		return false
	}
	end := len(start) - len(r.b)
	c.rec = start[:end:end]
	return true
}

// restore puts the cursor back on the record m marks within body, one that
// walked clean before, keeping Len. It reads the record's leading fields and
// its lists' counts where m says they lie, not the lists themselves.
func (c *Cursor) restore(body []byte, m mark) {
	c.rec = body[m.lo:m.hi:m.hi]
	r := reader{b: c.rec[fixedRecordLen:]}
	r.uvarint() // TagIdx
	c.link = topo.LinkID(r.uvarint())
	c.bytes = r.uvarint()
	r.uvarint() // Pkts
	r.uvarint() // FirstSeen
	r.uvarint() // LastSeen
	c.path = c.listAt(len(c.rec) - len(r.b))
	c.epochs = c.listAt(int(m.epochs))
	c.pairs = c.listAt(int(m.pairs))
	c.pairs.n = max(c.pairs.n-1, 0) // 0 = nil EpochBytes, else entries+1
}

// listAt reads the list whose count lies at cnt in the current record.
func (c *Cursor) listAt(cnt int) list {
	r := reader{b: c.rec[cnt:]}
	n := int(r.uvarint())
	return list{cnt, len(c.rec) - len(r.b), n}
}

// Encoding returns the record's encoding, as AppendRecord writes it, within
// the segment.
func (c *Cursor) Encoding() []byte { return c.rec }

// Flow returns the record's flow key.
func (c *Cursor) Flow() netsim.FlowKey { return FlowOf(c.rec) }

// Priority returns the record's DSCP priority.
func (c *Cursor) Priority() uint8 { return PriorityOf(c.rec) }

// Bytes returns the record's byte count.
func (c *Cursor) Bytes() uint64 { return c.bytes }

// TagLink returns the record's CherryPick link.
func (c *Cursor) TagLink() topo.LinkID { return c.link }

// EpochsAt is Record.EpochsAt, read from the encoding.
func (c *Cursor) EpochsAt(sw netsim.NodeID) (simtime.EpochRange, bool) {
	r := reader{b: c.rec[c.path.at:]}
	for i := range c.path.n {
		if netsim.NodeID(uint32(r.uvarint())) != sw {
			continue
		}
		if i >= c.epochs.n {
			break
		}
		r.b = c.rec[c.epochs.at:]
		for range 2 * i {
			r.uvarint()
		}
		lo := simtime.Epoch(zigzag(r.uvarint()))
		return simtime.EpochRange{Lo: lo, Hi: simtime.Epoch(zigzag(r.uvarint()))}, true
	}
	return simtime.EpochRange{}, false
}

// BytesIn is Record.BytesIn, read from the encoding.
func (c *Cursor) BytesIn(er simtime.EpochRange) uint64 {
	r := reader{b: c.rec[c.pairs.at:]}
	var total uint64
	for range c.pairs.n {
		e := simtime.Epoch(zigzag(r.uvarint()))
		if e > er.Hi {
			break // the pairs are in ascending epoch order
		}
		if v := r.uvarint(); er.Contains(e) {
			total += v
		}
	}
	return total
}

package flowrec

import (
	"encoding/binary"
	"fmt"
	"math"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// Cursor reads the records of one encoded segment in place. Next steps onto
// the next record and checks it: Next is the one statement of the record
// rules, and every decode (DecodeSegment, DecodeRecord, Scratch.Decode) and
// every splice (SpliceSegment) reads through it. The accessors answer from
// the record's bytes: nothing is allocated and no Record is filled. The
// first fault sticks: Next returns false from then on and Err says why. A
// walk that reaches the end also checks the body against the header's
// counts, so a segment walks to the end without error exactly when
// DecodeSegment decodes it. The accessors are valid while the last Next
// returned true.
//
//	c := NewCursor(seg)
//	for c.Next() {
//		use(c.Flow(), c.BytesIn(window))
//	}
//	if err := c.Err(); err != nil { ... }
type Cursor struct {
	b             []byte // the body past the current record
	left, n       int    // records the header still declares, and in all
	npath, nepoch int    // paths and epoch ranges it still declares
	err           error

	// The current record: its encoding, the scalars Next read, and where its
	// lists lie.
	rec                 []byte
	tagIdx              int
	link                topo.LinkID
	bytes, pkts         uint64
	first, last         simtime.Time
	path, epochs, pairs list
}

// list is where one of a record's lists lies within its encoding: its count
// at cnt, its first entry at at, and the count n. The pairs' count is as
// encoded: 0 = nil EpochBytes, else entries+1.
type list struct{ cnt, at, n int }

// NewCursor returns a cursor before the first record of segment seg. A
// header that cannot be seg's is the cursor's error at once: its counts are
// checked against len(seg) before anything is sized from them.
func NewCursor(seg []byte) Cursor {
	total, err := SegmentLen(seg)
	if err != nil {
		return Cursor{err: err}
	}
	nrec := int(binary.LittleEndian.Uint32(seg[4:]))
	c := Cursor{b: seg[SegmentHeaderLen:], left: nrec, n: nrec,
		npath: int(binary.LittleEndian.Uint32(seg[8:])), nepoch: int(binary.LittleEndian.Uint32(seg[12:]))}
	if total != len(seg) || uint64(nrec)*minRecordLen+uint64(c.npath)+2*uint64(c.nepoch) > uint64(len(c.b)) {
		return Cursor{err: fmt.Errorf("flowrec: corrupt segment: %d bytes cannot hold what the header declares", len(seg))}
	}
	return c
}

// Len returns how many records the segment's header declares (0 when the
// header is corrupt).
func (c *Cursor) Len() int { return c.n }

// Err returns the fault that stopped the walk, if any.
func (c *Cursor) Err() error { return c.err }

// Next steps onto the next record and reports whether there is one. A record
// is the layout the package comment gives, read to its last byte, with
// TagLink and every path entry at most 2³²−1, path and epoch-range counts
// no more than the header still declares, a pair count its bytes can hold
// and its pairs in strictly ascending epoch order.
func (c *Cursor) Next() bool {
	c.rec = nil
	if c.err != nil {
		return false
	}
	if c.left == 0 {
		if len(c.b) != 0 || c.npath != 0 || c.nepoch != 0 {
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
	c.tagIdx = int(zigzag(r.uvarint()))
	wide := r.uvarint() // TagLink, then ORed with every path entry
	c.link = topo.LinkID(wide)
	c.bytes = r.uvarint()
	c.pkts = r.uvarint()
	c.first = simtime.Time(zigzag(r.uvarint()))
	c.last = simtime.Time(zigzag(r.uvarint()))
	cnt := len(start) - len(r.b)
	n := int(r.bounded(uint64(c.npath)))
	c.npath -= n
	c.path = list{cnt, len(start) - len(r.b), n}
	for range n {
		wide |= r.uvarint()
	}
	r.bad = r.bad || wide > math.MaxUint32 // each of them fits 32 bits
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
	c.pairs = list{cnt, len(start) - len(r.b), n}
	for j, prev := 1, simtime.Epoch(0); j < n; j++ {
		e := simtime.Epoch(zigzag(r.uvarint()))
		r.bad = r.bad || (j > 1 && e <= prev) // the encoder's list is sorted
		r.uvarint()
		prev = e
	}
	if r.bad {
		c.err = errCorruptBody
		return false
	}
	// c takes only slices of c.b, which escape analysis sees as no new
	// pointer: the bytes a cursor walks escape no further than the cursor.
	end := len(start) - len(r.b)
	c.rec = c.b[:end:end]
	c.b = c.b[end:]
	return true
}

// restore puts the cursor back on the record m marks within body, one that
// walked clean before, keeping Len. It reads the record's scalars and its
// lists' counts where m says they lie, not the lists themselves.
func (c *Cursor) restore(body []byte, m mark) {
	c.rec = body[m.lo:m.hi:m.hi]
	r := reader{b: c.rec[fixedRecordLen:]}
	c.tagIdx = int(zigzag(r.uvarint()))
	c.link = topo.LinkID(r.uvarint())
	c.bytes = r.uvarint()
	c.pkts = r.uvarint()
	c.first = simtime.Time(zigzag(r.uvarint()))
	c.last = simtime.Time(zigzag(r.uvarint()))
	c.path = c.listAt(len(c.rec) - len(r.b))
	c.epochs = c.listAt(int(m.epochs))
	c.pairs = c.listAt(int(m.pairs))
}

// listAt reads the list whose count lies at cnt in the current record.
func (c *Cursor) listAt(cnt int) list {
	r := reader{b: c.rec[cnt:]}
	n := int(r.uvarint())
	return list{cnt, len(c.rec) - len(r.b), n}
}

// recordCursor returns a cursor before enc taken as exactly one record, as
// AppendRecord writes it. Its counts are bounded by len(enc), where a
// segment's are by its header. It and whole inline, so the cursor lives in
// the caller's frame and enc escapes no further than it does.
func recordCursor(enc []byte) Cursor {
	return Cursor{b: enc, left: 1, npath: len(enc), nepoch: len(enc)}
}

// whole steps a recordCursor onto its record and reports whether Next
// accepts it and it ends where the encoding does.
func (c *Cursor) whole() bool { return c.Next() && len(c.b) == 0 }

// fill fills r with the record Next accepted: the scalars Next kept, then the
// path, epoch ranges and epoch bytes read again from where Next found them.
// Path and Epochs are cut from the fronts of paths and epochs, or made when
// one is short, and the rest of each is returned. A non-nil eb, cleared,
// holds a kept EpochBytes; otherwise it gets a new map.
func (c *Cursor) fill(r *Record, paths []netsim.NodeID, epochs []simtime.EpochRange, eb map[simtime.Epoch]uint64) ([]netsim.NodeID, []simtime.EpochRange) {
	r.Flow, r.Priority = FlowOf(c.rec), PriorityOf(c.rec)
	r.TagIdx, r.TagLink, r.Bytes, r.Pkts = c.tagIdx, c.link, c.bytes, c.pkts
	r.FirstSeen, r.LastSeen = c.first, c.last
	r.Path, r.Epochs, r.EpochBytes = nil, nil, nil
	if n := c.path.n; n > 0 {
		if len(paths) < n {
			paths = make([]netsim.NodeID, n)
		}
		r.Path, paths = paths[:n:n], paths[n:]
		rd := reader{b: c.rec[c.path.at:]}
		for j := range r.Path {
			r.Path[j] = netsim.NodeID(uint32(rd.uvarint()))
		}
	}
	if n := c.epochs.n; n > 0 {
		if len(epochs) < n {
			epochs = make([]simtime.EpochRange, n)
		}
		r.Epochs, epochs = epochs[:n:n], epochs[n:]
		rd := reader{b: c.rec[c.epochs.at:]}
		for j := range r.Epochs {
			r.Epochs[j].Lo = simtime.Epoch(zigzag(rd.uvarint()))
			r.Epochs[j].Hi = simtime.Epoch(zigzag(rd.uvarint()))
		}
	}
	if n := c.pairs.n; n > 0 {
		if r.EpochBytes = eb; eb != nil {
			clear(eb)
		} else {
			r.EpochBytes = make(map[simtime.Epoch]uint64, n-1)
		}
		rd := reader{b: c.rec[c.pairs.at:]}
		for range n - 1 {
			e := simtime.Epoch(zigzag(rd.uvarint()))
			r.EpochBytes[e] = rd.uvarint()
		}
	}
	return paths, epochs
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
	for range c.pairs.n - 1 { // none when EpochBytes is nil
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

package flowrec

import (
	"encoding/binary"
	"fmt"
	"math"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/varint"
)

// Cursor reads the records of one encoded segment in place. Next steps onto
// the next record and checks it: Next is the one statement of the record
// rules, and every decode (DecodeSegment, DecodeRecord, Scratch.Decode) and
// every splice (SpliceSegment) reads through it. Its varints, like every
// binary format's in this module, are read by internal/varint's Reader,
// whose Uvarint inlines into Next. A decode hands the cursor the records to
// fill, and Next fills each as it walks it, so a decoded record is read
// once. The accessors answer from the record's bytes: nothing is allocated
// and no Record is filled. The first fault sticks: Next returns false from
// then on and Err says why. A walk that reaches the end also checks the body
// against the header's counts, so a segment walks to the end without error
// exactly when DecodeSegment decodes it. The accessors are valid while the
// last Next returned true.
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

	into *decode // the records Next fills, under a decode; nil on a walk
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
// and its pairs in strictly ascending epoch order. Under a decode (into) it
// fills the decode's next record as it reads it: the record is whole when
// Next returns true, and undefined when it returns false.
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
	var d *Record
	if c.into != nil {
		d = &take(&c.into.recs, 1)[0]
	}
	r := varint.NewReader(start[fixedRecordLen:])
	c.tagIdx = int(varint.Zigzag(r.Uvarint()))
	wide := r.Uvarint() // TagLink, then ORed with every path entry
	c.link = topo.LinkID(wide)
	c.bytes = r.Uvarint()
	c.pkts = r.Uvarint()
	c.first = simtime.Time(varint.Zigzag(r.Uvarint()))
	c.last = simtime.Time(varint.Zigzag(r.Uvarint()))
	cnt := len(start) - r.Len()
	n := int(r.Uvarint())
	bad := n < 0 || n > c.npath // a count out of bounds reads as none
	if bad {
		n = 0
	}
	c.npath -= n
	c.path = list{cnt, len(start) - r.Len(), n}
	if d != nil {
		d.Path = take(&c.into.paths, n)
		for j := range d.Path {
			v := r.Uvarint()
			wide |= v
			d.Path[j] = netsim.NodeID(uint32(v))
		}
	} else {
		for range n {
			wide |= r.Uvarint()
		}
	}
	bad = bad || wide > math.MaxUint32 // each of them fits 32 bits
	cnt = len(start) - r.Len()
	if n = int(r.Uvarint()); n < 0 || n > c.nepoch {
		n, bad = 0, true
	}
	c.nepoch -= n
	c.epochs = list{cnt, len(start) - r.Len(), n}
	if d != nil {
		d.Epochs = take(&c.into.epochs, n)
		for j := range d.Epochs {
			d.Epochs[j] = simtime.EpochRange{Lo: simtime.Epoch(varint.Zigzag(r.Uvarint())), Hi: simtime.Epoch(varint.Zigzag(r.Uvarint()))}
		}
	} else {
		for range 2 * n {
			r.Uvarint()
		}
	}
	// 0 = nil EpochBytes, else entries+1; an entry takes two bytes or more
	// of those from the count on.
	cnt = len(start) - r.Len()
	if n = int(r.Uvarint()); n < 0 || n > (len(start)-cnt)/2+1 {
		n, bad = 0, true
	}
	c.pairs = list{cnt, len(start) - r.Len(), n}
	if d != nil {
		d.EpochBytes = c.into.epochBytes(n)
	}
	for j, prev := 1, simtime.Epoch(0); j < n; j++ {
		e := simtime.Epoch(varint.Zigzag(r.Uvarint()))
		bad = bad || (j > 1 && e <= prev) // the encoder's list is sorted
		if v := r.Uvarint(); d != nil {
			d.EpochBytes[e] = v
		}
		prev = e
	}
	if bad || r.Bad() {
		c.err = errCorruptBody
		return false
	}
	// c takes only slices of c.b, which escape analysis sees as no new
	// pointer: the bytes a cursor walks escape no further than the cursor.
	end := len(start) - r.Len()
	c.rec = c.b[:end:end]
	c.b = c.b[end:]
	if d != nil {
		d.Flow, d.Priority = FlowOf(c.rec), PriorityOf(c.rec)
		d.TagIdx, d.TagLink, d.Bytes, d.Pkts = c.tagIdx, c.link, c.bytes, c.pkts
		d.FirstSeen, d.LastSeen = c.first, c.last
	}
	return true
}

// decode is what a decode hands a cursor: Next fills the front of recs and
// cuts each Path and Epochs from the fronts of paths and epochs. Held by
// pointer, it leaves the bytes the cursor walks escaping no further than the
// cursor.
type decode struct {
	recs   []Record
	paths  []netsim.NodeID
	epochs []simtime.EpochRange
	kept   map[simtime.Epoch]uint64 // every record's EpochBytes, cleared; nil for a new map each
}

// take cuts n entries, capped, from the front of *slab, making a slab of n
// when it is short; none is nil.
func take[T any](slab *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if len(*slab) < n {
		*slab = make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// epochBytes returns the EpochBytes of a record whose pair count is n.
func (f *decode) epochBytes(n int) map[simtime.Epoch]uint64 {
	switch {
	case n == 0:
		return nil
	case f.kept == nil:
		return make(map[simtime.Epoch]uint64, n-1)
	}
	clear(f.kept)
	return f.kept
}

// restore puts the cursor back on the record m marks within body, one that
// walked clean before, keeping Len. It reads the record's scalars and its
// lists' counts where m says they lie, not the lists themselves.
func (c *Cursor) restore(body []byte, m mark) {
	c.rec = body[m.lo:m.hi:m.hi]
	r := varint.NewReader(c.rec[fixedRecordLen:])
	c.tagIdx = int(varint.Zigzag(r.Uvarint()))
	c.link = topo.LinkID(r.Uvarint())
	c.bytes = r.Uvarint()
	c.pkts = r.Uvarint()
	c.first = simtime.Time(varint.Zigzag(r.Uvarint()))
	c.last = simtime.Time(varint.Zigzag(r.Uvarint()))
	c.path = c.listAt(len(c.rec) - r.Len())
	c.epochs = c.listAt(int(m.epochs))
	c.pairs = c.listAt(int(m.pairs))
}

// listAt reads the list whose count lies at cnt in the current record.
func (c *Cursor) listAt(cnt int) list {
	r := varint.NewReader(c.rec[cnt:])
	n := int(r.Uvarint())
	return list{cnt, len(c.rec) - r.Len(), n}
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
	r := varint.NewReader(c.rec[c.path.at:])
	for i := range c.path.n {
		if netsim.NodeID(uint32(r.Uvarint())) != sw {
			continue
		}
		if i >= c.epochs.n {
			break
		}
		r = varint.NewReader(c.rec[c.epochs.at:])
		for range 2 * i {
			r.Uvarint()
		}
		lo := simtime.Epoch(varint.Zigzag(r.Uvarint()))
		return simtime.EpochRange{Lo: lo, Hi: simtime.Epoch(varint.Zigzag(r.Uvarint()))}, true
	}
	return simtime.EpochRange{}, false
}

// BytesIn is Record.BytesIn, read from the encoding.
func (c *Cursor) BytesIn(er simtime.EpochRange) uint64 {
	r := varint.NewReader(c.rec[c.pairs.at:])
	var total uint64
	for range c.pairs.n - 1 { // none when EpochBytes is nil
		e := simtime.Epoch(varint.Zigzag(r.Uvarint()))
		if e > er.Hi {
			break // the pairs are in ascending epoch order
		}
		if v := r.Uvarint(); er.Contains(e) {
			total += v
		}
	}
	return total
}

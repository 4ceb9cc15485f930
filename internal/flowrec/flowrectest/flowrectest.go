// Package flowrectest holds the reference decoder that the tests of flowrec
// and of its callers check every flowrec decode against. It states the
// segment format and the record rules a second time, apart from
// flowrec.Cursor.Next and apart from internal/varint: it reads through a
// bytes.Reader with encoding/binary's ReadUvarint and ReadVarint, so a rule
// dropped from Next, or a fault in the shared varint loop, shows as a
// disagreement. It is for tests only.
package flowrectest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// fixedLen is a record's flow key and priority: u32 u32 u16 u16 u8 u8.
const fixedLen = 14

var errCorrupt = errors.New("flowrectest: corrupt segment")

// DecodeSegment decodes segment b, exactly one, the reference way: a 20-byte
// header (magic 0x89 'S' 'P', version 1, three u32 counts, the u32 body
// length), then as many records as it counts, holding exactly the path
// entries and epoch ranges it counts.
func DecodeSegment(b []byte) ([]*flowrec.Record, error) {
	le := binary.LittleEndian
	if len(b) < flowrec.SegmentHeaderLen || b[0] != 0x89 || b[1] != 'S' || b[2] != 'P' || b[3] != 1 ||
		uint64(le.Uint32(b[16:])) != uint64(len(b)-flowrec.SegmentHeaderLen) {
		return nil, errCorrupt
	}
	d := decoder{r: bytes.NewReader(b[flowrec.SegmentHeaderLen:]), npath: uint64(le.Uint32(b[8:])), nepoch: uint64(le.Uint32(b[12:]))}
	out := []*flowrec.Record{}
	for range le.Uint32(b[4:]) {
		r := new(flowrec.Record)
		if d.record(r); d.bad {
			return nil, errCorrupt
		}
		out = append(out, r)
	}
	if d.r.Len() != 0 || d.npath != 0 || d.nepoch != 0 {
		return nil, errCorrupt
	}
	return out, nil
}

// DecodeRecord decodes enc, exactly one record, the reference way, and
// reports whether it is one.
func DecodeRecord(enc []byte) (*flowrec.Record, bool) {
	d := decoder{r: bytes.NewReader(enc), npath: uint64(len(enc)), nepoch: uint64(len(enc))}
	r := new(flowrec.Record)
	d.record(r)
	return r, !d.bad && d.r.Len() == 0
}

// decoder reads records off r. npath and nepoch count the path entries and
// epoch ranges still declared; the first fault sticks in bad.
type decoder struct {
	r             *bytes.Reader
	bad           bool
	npath, nepoch uint64
}

// record decodes the next record into r: the layout of flowrec's package
// comment, with TagLink and every path entry at most 2³²−1, counts within
// what is still declared, a pair count its bytes can hold and pairs in
// strictly ascending epoch order.
func (d *decoder) record(r *flowrec.Record) {
	var fixed [fixedLen]byte
	if _, err := io.ReadFull(d.r, fixed[:]); err != nil {
		d.bad = true
		return
	}
	r.Flow, r.Priority = flowrec.FlowOf(fixed[:]), fixed[fixedLen-1]
	r.TagIdx = int(d.varint())
	r.TagLink = topo.LinkID(d.bounded(math.MaxUint32))
	r.Bytes = d.uvarint()
	r.Pkts = d.uvarint()
	r.FirstSeen = simtime.Time(d.varint())
	r.LastSeen = simtime.Time(d.varint())
	// A path entry takes a byte or more, an epoch range two: the second
	// bound refuses nothing the first would not, but keeps a forged count
	// from sizing a slice.
	if n := d.bounded(min(d.npath, uint64(d.r.Len()))); n > 0 {
		d.npath -= n
		r.Path = make([]netsim.NodeID, n)
		for j := range r.Path {
			r.Path[j] = netsim.NodeID(uint32(d.bounded(math.MaxUint32)))
		}
	}
	if n := d.bounded(min(d.nepoch, uint64(d.r.Len()/2))); n > 0 {
		d.nepoch -= n
		r.Epochs = make([]simtime.EpochRange, n)
		for j := range r.Epochs {
			r.Epochs[j] = simtime.EpochRange{Lo: simtime.Epoch(d.varint()), Hi: simtime.Epoch(d.varint())}
		}
	}
	// 0 = nil EpochBytes, else entries+1; an entry takes two bytes or more.
	if n := d.bounded(uint64(d.r.Len()/2) + 1); n > 0 {
		r.EpochBytes = make(map[simtime.Epoch]uint64, n-1)
		for j, prev := uint64(1), simtime.Epoch(0); j < n; j++ {
			e := simtime.Epoch(d.varint())
			d.bad = d.bad || (j > 1 && e <= prev)
			r.EpochBytes[e] = d.uvarint()
			prev = e
		}
	}
}

func (d *decoder) uvarint() uint64 {
	v, err := binary.ReadUvarint(d.r)
	d.bad = d.bad || err != nil
	return v
}

func (d *decoder) varint() int64 {
	v, err := binary.ReadVarint(d.r)
	d.bad = d.bad || err != nil
	return v
}

// bounded reads one uvarint no greater than limit, or 0 and a fault.
func (d *decoder) bounded(limit uint64) uint64 {
	if v := d.uvarint(); v <= limit {
		return v
	}
	d.bad = true
	return 0
}

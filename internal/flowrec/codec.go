package flowrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

const (
	// SegmentVersion is the format version this build writes and reads.
	SegmentVersion = 1
	// SegmentHeaderLen is the fixed size of a segment header.
	SegmentHeaderLen = 20
	fixedRecordLen   = 14                 // flow key + priority
	minRecordLen     = fixedRecordLen + 9 // ... + nine varints of a byte or more
)

// segMagic opens every segment.
var segMagic = [3]byte{0x89, 'S', 'P'}

// SegmentLen returns the total encoded length, header included, that a
// segment header declares.
func SegmentLen(hdr []byte) (int, error) {
	if len(hdr) < SegmentHeaderLen || [3]byte(hdr) != segMagic {
		return 0, errors.New("flowrec: corrupt segment: short or foreign header")
	}
	if hdr[3] != SegmentVersion {
		return 0, fmt.Errorf("flowrec: segment version %d, this build reads %d", hdr[3], SegmentVersion)
	}
	return SegmentHeaderLen + int(binary.LittleEndian.Uint32(hdr[16:])), nil
}

// AppendRecord appends r's encoding (EpochBytes in epoch order) to dst.
func AppendRecord(dst []byte, r *Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Flow.Src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Flow.Dst))
	dst = binary.LittleEndian.AppendUint16(dst, r.Flow.SrcPort)
	dst = binary.LittleEndian.AppendUint16(dst, r.Flow.DstPort)
	dst = append(dst, byte(r.Flow.Proto), r.Priority)
	dst = binary.AppendVarint(dst, int64(r.TagIdx))
	dst = binary.AppendUvarint(dst, uint64(r.TagLink))
	dst = binary.AppendUvarint(dst, r.Bytes)
	dst = binary.AppendUvarint(dst, r.Pkts)
	dst = binary.AppendVarint(dst, int64(r.FirstSeen))
	dst = binary.AppendVarint(dst, int64(r.LastSeen))
	dst = binary.AppendUvarint(dst, uint64(len(r.Path)))
	for _, sw := range r.Path {
		dst = binary.AppendUvarint(dst, uint64(uint32(sw)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Epochs)))
	for _, er := range r.Epochs {
		dst = binary.AppendVarint(dst, int64(er.Lo))
		dst = binary.AppendVarint(dst, int64(er.Hi))
	}
	if r.EpochBytes == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.EpochBytes))+1)
	var buf [16]simtime.Epoch // on the stack: a record sees few exact epochs
	epochs := buf[:0]
	for e := range r.EpochBytes {
		epochs = append(epochs, e)
	}
	slices.Sort(epochs)
	for _, e := range epochs {
		dst = binary.AppendVarint(dst, int64(e))
		dst = binary.AppendUvarint(dst, r.EpochBytes[e])
	}
	return dst
}

// recordLen is len(AppendRecord(nil, r)).
func recordLen(r *Record) int {
	n := fixedRecordLen + varintLen(int64(r.TagIdx)) + uvarintLen(uint64(r.TagLink)) +
		uvarintLen(r.Bytes) + uvarintLen(r.Pkts) + varintLen(int64(r.FirstSeen)) + varintLen(int64(r.LastSeen)) +
		uvarintLen(uint64(len(r.Path))) + uvarintLen(uint64(len(r.Epochs))) + 1
	for _, sw := range r.Path {
		n += uvarintLen(uint64(uint32(sw)))
	}
	for _, er := range r.Epochs {
		n += varintLen(int64(er.Lo)) + varintLen(int64(er.Hi))
	}
	if r.EpochBytes != nil {
		n += uvarintLen(uint64(len(r.EpochBytes))+1) - 1
		for e, v := range r.EpochBytes {
			n += varintLen(int64(e)) + uvarintLen(v)
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// AppendSegment appends one self-delimiting segment holding recs to dst,
// growing it at most once, by exactly the segment's length.
func AppendSegment(dst []byte, recs []*Record) ([]byte, error) {
	paths, epochs, size := 0, 0, SegmentHeaderLen
	for _, r := range recs {
		paths += len(r.Path)
		epochs += len(r.Epochs)
		size += recordLen(r)
	}
	start := len(dst)
	dst = slices.Grow(dst, size)
	dst = append(dst, segMagic[0], segMagic[1], segMagic[2], SegmentVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(recs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(paths))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(epochs))
	dst = append(dst, 0, 0, 0, 0) // body length, patched below
	for _, r := range recs {
		dst = AppendRecord(dst, r)
	}
	body := len(dst) - start - SegmentHeaderLen
	if body > math.MaxUint32 { // which also bounds the three counts
		return dst[:start], errors.New("flowrec: encode segment: body exceeds 4 GiB")
	}
	binary.LittleEndian.PutUint32(dst[start+16:], uint32(body))
	return dst, nil
}

// DecodeSegment decodes exactly one segment into the records keep admits
// (see the package comment) and returns them with the segment's record
// count. The header's counts are checked against len(b) before anything is
// sized from them, so a forged input cannot make it allocate out of
// proportion to its length. Records, paths and epoch ranges come out of
// three slabs; each Path and Epochs is capped to its own length, so an append
// (Absorb on a rerouted flow) reallocates. With a keep, a first pass
// validates the body and notes where admitted records start.
func DecodeSegment(b []byte, keep func(*Record) bool) ([]*Record, int, error) {
	total, err := SegmentLen(b)
	if err != nil {
		return nil, 0, err
	}
	nrec := int(binary.LittleEndian.Uint32(b[4:]))
	npath := int(binary.LittleEndian.Uint32(b[8:]))
	nepoch := int(binary.LittleEndian.Uint32(b[12:]))
	body := b[SegmentHeaderLen:]
	if total != len(b) || uint64(nrec)*minRecordLen+uint64(npath)+2*uint64(nepoch) > uint64(len(body)) {
		return nil, 0, fmt.Errorf("flowrec: corrupt segment: %d bytes cannot hold what the header declares", len(b))
	}
	n, starts := nrec, []int(nil)
	if keep != nil {
		var startBuf [64]int // on the stack: most answers admit fewer records
		starts = startBuf[:0]
		// One allocation, with room for paths of up to eight hops.
		scratch := &struct {
			Record
			paths  [8]netsim.NodeID
			epochs [8]simtime.EpochRange
		}{}
		d := decoder{b: body, npath: npath, nepoch: nepoch}
		npath, nepoch = 0, 0
		for range nrec {
			at := len(body) - len(d.b)
			d.paths, d.epochs = scratch.paths[:], scratch.epochs[:]
			if d.record(&scratch.Record, false); d.bad {
				break
			}
			if keep(&scratch.Record) {
				if len(starts) == cap(starts) {
					starts = slices.Grow(starts, nrec-len(starts)) // at most once
				}
				starts = append(starts, at)
				npath += len(scratch.Path)
				nepoch += len(scratch.Epochs)
			}
		}
		if err := d.check(); err != nil {
			return nil, 0, err
		}
		if len(starts) == 0 {
			return nil, nrec, nil
		}
		n = len(starts)
	}
	d := decoder{b: body, npath: npath, nepoch: nepoch,
		paths: make([]netsim.NodeID, npath), epochs: make([]simtime.EpochRange, nepoch)}
	slab := make([]Record, n)
	out := make([]*Record, n)
	for i := range slab {
		if starts != nil {
			d.b = body[starts[i]:]
		}
		out[i] = &slab[i]
		if d.record(out[i], true); d.bad {
			break
		}
	}
	if starts == nil { // a filtered pass has validated the body already
		if err := d.check(); err != nil {
			return nil, 0, err
		}
	}
	return out, nrec, nil
}

// decoder is a bounds-checked cursor with a sticky failure: after the first
// short or out-of-range read every read returns zero; bad is checked once.
// npath and nepoch count what the header still declares; records cut their
// Path and Epochs from the fronts of paths and epochs.
type decoder struct {
	b             []byte
	bad           bool
	npath, nepoch int
	paths         []netsim.NodeID
	epochs        []simtime.EpochRange
}

// record decodes the record at the cursor into r. The EpochBytes pairs are
// always validated, but kept (in a new map) only withBytes.
func (d *decoder) record(r *Record, withBytes bool) {
	if len(d.b) < fixedRecordLen {
		d.bad = true
		return
	}
	r.Flow.Src = netsim.IPv4(binary.LittleEndian.Uint32(d.b))
	r.Flow.Dst = netsim.IPv4(binary.LittleEndian.Uint32(d.b[4:]))
	r.Flow.SrcPort = binary.LittleEndian.Uint16(d.b[8:])
	r.Flow.DstPort = binary.LittleEndian.Uint16(d.b[10:])
	r.Flow.Proto, r.Priority = netsim.Protocol(d.b[12]), d.b[13]
	d.b = d.b[fixedRecordLen:]
	r.TagIdx = int(d.varint())
	r.TagLink = topo.LinkID(d.uvarint(math.MaxUint32))
	r.Bytes = d.uvarint(math.MaxUint64)
	r.Pkts = d.uvarint(math.MaxUint64)
	r.FirstSeen = simtime.Time(d.varint())
	r.LastSeen = simtime.Time(d.varint())
	r.Path, r.Epochs, r.EpochBytes = nil, nil, nil
	// Counts are bounded by what the header still declares. A buffer short of
	// one is a filtered pass's scratch, never a slab.
	n := int(d.uvarint(uint64(d.npath)))
	if d.npath -= n; n > 0 {
		if len(d.paths) < n {
			d.paths = make([]netsim.NodeID, n)
		}
		r.Path, d.paths = d.paths[:n:n], d.paths[n:]
		for j := range r.Path {
			r.Path[j] = netsim.NodeID(uint32(d.uvarint(math.MaxUint32)))
		}
	}
	n = int(d.uvarint(uint64(d.nepoch)))
	if d.nepoch -= n; n > 0 {
		if len(d.epochs) < n {
			d.epochs = make([]simtime.EpochRange, n)
		}
		r.Epochs, d.epochs = d.epochs[:n:n], d.epochs[n:]
		for j := range r.Epochs {
			r.Epochs[j].Lo = simtime.Epoch(d.varint())
			r.Epochs[j].Hi = simtime.Epoch(d.varint())
		}
	}
	// An entry takes two bytes or more, which bounds the map's size.
	if n := d.uvarint(uint64(len(d.b)/2) + 1); n > 0 {
		if withBytes {
			r.EpochBytes = make(map[simtime.Epoch]uint64, n-1)
		}
		for j, prev := uint64(1), simtime.Epoch(0); j < n; j++ {
			e := simtime.Epoch(d.varint())
			d.bad = d.bad || (j > 1 && e <= prev) // the encoder's list is sorted
			v := d.uvarint(math.MaxUint64)
			if withBytes {
				r.EpochBytes[e] = v
			}
			prev = e
		}
	}
}

// check reports whether the body ended exactly where the header's counts
// said it would.
func (d *decoder) check() error {
	if d.bad || len(d.b) != 0 || d.npath != 0 || d.nepoch != 0 {
		return errors.New("flowrec: corrupt segment: body does not match the header's counts")
	}
	return nil
}

func (d *decoder) uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > limit {
		d.b, d.bad, v, n = nil, true, 0, 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint(math.MaxUint64)
	return int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint
}

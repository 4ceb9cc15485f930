package flowrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/varint"
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

// SegmentRecords returns how many records a segment header declares.
func SegmentRecords(hdr []byte) (int, error) {
	if _, err := SegmentLen(hdr); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint32(hdr[4:])), nil
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
	n := fixedRecordLen + varint.VarintLen(int64(r.TagIdx)) + varint.UvarintLen(uint64(r.TagLink)) +
		varint.UvarintLen(r.Bytes) + varint.UvarintLen(r.Pkts) + varint.VarintLen(int64(r.FirstSeen)) + varint.VarintLen(int64(r.LastSeen)) +
		varint.UvarintLen(uint64(len(r.Path))) + varint.UvarintLen(uint64(len(r.Epochs))) + 1
	for _, sw := range r.Path {
		n += varint.UvarintLen(uint64(uint32(sw)))
	}
	for _, er := range r.Epochs {
		n += varint.VarintLen(int64(er.Lo)) + varint.VarintLen(int64(er.Hi))
	}
	if r.EpochBytes != nil {
		n += varint.UvarintLen(uint64(len(r.EpochBytes))+1) - 1
		for e, v := range r.EpochBytes {
			n += varint.VarintLen(int64(e)) + varint.UvarintLen(v)
		}
	}
	return n
}

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

// DecodeSegment decodes exactly one segment: a Cursor walks it, filling each
// record as Next reads it. The header's counts are checked against len(b)
// before anything is sized from them, so a forged input cannot make it
// allocate out of proportion to its length. Records, paths and epoch ranges
// come out of three slabs; each Path and Epochs is capped to its own length,
// so an append (Absorb on a rerouted flow) reallocates.
func DecodeSegment(b []byte) ([]*Record, error) {
	h := NewCursor(b)
	if h.err != nil {
		return nil, h.err
	}
	c := h // a copy, so that its decode cannot leave through h.err: no allocation
	slab := make([]Record, c.n)
	c.into = &decode{recs: slab, paths: make([]netsim.NodeID, c.npath), epochs: make([]simtime.EpochRange, c.nepoch)}
	out := make([]*Record, c.n)
	for i := 0; c.Next(); i++ {
		out[i] = &slab[i]
	}
	if c.err != nil {
		return nil, errCorruptBody // Next's one fault
	}
	return out, nil
}

// ScanSegment walks segment b with a Cursor, calling keep (nil admits all) at
// every record, in order, and once the whole segment has walked clean calls
// fn, in order, with the cursor at each record keep admitted. The cursor is
// valid only during a call, and neither may advance it. It returns the
// segment's record count; on an error fn is never called. It is how a record
// leaves a segment as bytes: the cold tier's matches join a host answer this
// way, never decoded.
//
// Its cursor and the list of where admitted records lie come from a pool, so
// a steady-state scan allocates nothing, however many records it admits.
func ScanSegment(b []byte, keep func(*Cursor) bool, fn func(*Cursor)) (int, error) {
	s := scanPool.Get().(*scanScratch)
	defer s.release()
	c := &s.c
	if *c = NewCursor(b); c.err != nil {
		return 0, c.err
	}
	// The walk notes where each admitted record lies, and where its lists'
	// counts do; fn runs only once the whole body has matched the header's
	// counts, with the cursor put back on each record from its mark.
	body := b[SegmentHeaderLen:]
	marks := s.marks[:0]
	for c.Next() {
		if keep == nil || keep(c) {
			if len(marks) == cap(marks) {
				marks = slices.Grow(marks, c.n-len(marks)) // at most once
			}
			hi := len(body) - len(c.b)
			// A body is shorter than 4 GiB: the header says how long in 32 bits.
			marks = append(marks, mark{uint32(hi - len(c.rec)), uint32(hi), uint32(c.epochs.cnt), uint32(c.pairs.cnt)})
		}
	}
	s.marks = marks
	if err := c.Err(); err != nil {
		return 0, err
	}
	for _, m := range marks {
		c.restore(body, m)
		fn(c)
	}
	return c.n, nil
}

// scanScratch is what ScanSegment walks a segment with: its cursor and the
// list of where the admitted records lie.
type scanScratch struct {
	c     Cursor
	marks []mark
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// release drops the cursor's references to the segment and pools s, unless
// its list has room for more than 16 Ki records (256 KiB).
func (s *scanScratch) release() {
	s.c = Cursor{}
	if cap(s.marks) <= 1<<14 {
		scanPool.Put(s)
	}
}

// ValidateSegment walks segment b with a Cursor and returns its record count.
// It accepts exactly what DecodeSegment decodes, allocating nothing and
// filling no record: the check a segment gets where it crosses a trust
// boundary.
func ValidateSegment(b []byte) (int, error) {
	c := NewCursor(b)
	for c.Next() {
	}
	if err := c.Err(); err != nil {
		return 0, err
	}
	return c.Len(), nil
}

// SpliceSegment appends one segment whose records are encs, in order, each
// exactly one record as AppendRecord writes it: over the encodings of recs,
// the bytes AppendSegment(dst, recs) appends. This is how a host answer is
// assembled from stored and cold record bytes without decoding them. Each
// range is checked on its own by a one-record Cursor, as DecodeRecord checks
// it, which also gives its path and epoch counts: a range that is not
// exactly one valid record fails the splice and dst comes back unchanged, so
// every segment it returns decodes. dst grows at most once.
func SpliceSegment(dst []byte, encs [][]byte) ([]byte, error) {
	size := SegmentHeaderLen
	for _, enc := range encs {
		size += len(enc)
	}
	start := len(dst)
	dst = slices.Grow(dst, size)
	dst = append(dst, segMagic[0], segMagic[1], segMagic[2], SegmentVersion)
	dst = append(dst, make([]byte, SegmentHeaderLen-4)...) // counts, patched below
	paths, epochs := 0, 0
	for i, enc := range encs {
		c := recordCursor(enc)
		if !c.whole() {
			return dst[:start], fmt.Errorf("flowrec: splice segment: range %d is not one record", i)
		}
		paths, epochs = paths+c.path.n, epochs+c.epochs.n
		dst = append(dst, enc...)
	}
	body := len(dst) - start - SegmentHeaderLen
	if body > math.MaxUint32 {
		return dst[:start], errors.New("flowrec: splice segment: body exceeds 4 GiB")
	}
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(encs)))
	binary.LittleEndian.PutUint32(dst[start+8:], uint32(paths))
	binary.LittleEndian.PutUint32(dst[start+12:], uint32(epochs))
	binary.LittleEndian.PutUint32(dst[start+16:], uint32(body))
	return dst, nil
}

// FlowOf returns the flow key a record encoding opens with. enc must hold at
// least its fixed-width prefix, as every stored or spliced encoding does.
func FlowOf(enc []byte) netsim.FlowKey {
	_ = enc[fixedRecordLen-1]
	return netsim.FlowKey{
		Src:     netsim.IPv4(binary.LittleEndian.Uint32(enc)),
		Dst:     netsim.IPv4(binary.LittleEndian.Uint32(enc[4:])),
		SrcPort: binary.LittleEndian.Uint16(enc[8:]),
		DstPort: binary.LittleEndian.Uint16(enc[10:]),
		Proto:   netsim.Protocol(enc[12]),
	}
}

// PriorityOf returns the priority byte that closes a record encoding's
// fixed-width prefix, which enc must hold, as FlowOf's.
func PriorityOf(enc []byte) uint8 { return enc[fixedRecordLen-1] }

// DecodeRecord decodes enc, exactly one record as AppendRecord writes it,
// into a fresh record the caller owns, filled by a one-record Cursor as it
// checks enc.
func DecodeRecord(enc []byte) (*Record, error) {
	r := make([]Record, 1)
	c := recordCursor(enc)
	c.into = &decode{recs: r}
	if !c.whole() {
		return nil, errCorruptRecord
	}
	return &r[0], nil
}

var errCorruptRecord = errors.New("flowrec: corrupt record encoding")

// Scratch decodes records one at a time into storage it reuses: each Decode,
// a failed one too, overwrites the record the previous one returned, so
// nothing decoded may be kept past the next call. It checks and fills a
// record as DecodeRecord does. The zero Scratch is ready; after its first use
// a decode of up to 16 hops allocates nothing.
type Scratch struct {
	rec    [1]Record
	paths  [16]netsim.NodeID
	epochs [16]simtime.EpochRange
	d      decode
}

// Decode decodes enc, exactly one record as AppendRecord writes it, into the
// scratch record, EpochBytes included.
func (s *Scratch) Decode(enc []byte) (*Record, error) {
	if s.d.kept == nil {
		s.d.kept = make(map[simtime.Epoch]uint64)
	}
	s.d.recs, s.d.paths, s.d.epochs = s.rec[:], s.paths[:], s.epochs[:]
	c := recordCursor(enc)
	c.into = &s.d
	if !c.whole() {
		return nil, errCorruptRecord
	}
	return &s.rec[0], nil
}

// mark is where ScanSegment found an admitted record within a segment body,
// [lo, hi), and where, within the record, its epoch-range and epoch-byte
// counts lie: what Cursor.restore needs to put a cursor back on it.
type mark struct{ lo, hi, epochs, pairs uint32 }

var errCorruptBody = errors.New("flowrec: corrupt segment: body does not match the header's counts")

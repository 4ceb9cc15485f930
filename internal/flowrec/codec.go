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
// validates the body and notes where admitted records lie.
func DecodeSegment(b []byte, keep func(*Record) bool) ([]*Record, int, error) {
	body, nrec, npath, nepoch, err := segmentBody(b)
	if err != nil {
		return nil, 0, err
	}
	if keep != nil {
		return decodeAdmitted(body, nrec, npath, nepoch, keep)
	}
	recs, err := decodeSlabs(body, nrec, npath, nepoch, nil)
	if err != nil {
		return nil, 0, err
	}
	return recs, nrec, nil
}

// decodeAdmitted is DecodeSegment with a keep: a validating pass notes where
// the admitted records lie, and only they are decoded.
func decodeAdmitted(body []byte, nrec, npath, nepoch int, keep func(*Record) bool) ([]*Record, int, error) {
	var spanBuf [64]span // on the stack: most answers admit fewer records
	// One allocation: the scratch escapes through keep.
	spans, npath, nepoch, err := admit(body, nrec, npath, nepoch, keep, new(Scratch), spanBuf[:0])
	if err != nil {
		return nil, 0, err
	}
	if len(spans) == 0 {
		return nil, nrec, nil
	}
	recs, _ := decodeSlabs(body, len(spans), npath, nepoch, spans)
	return recs, nrec, nil
}

// decodeSlabs decodes n records of body, holding npath switches and nepoch
// ranges between them, out of three slabs: the body's records, checked
// against those counts, or the validated ones at spans.
func decodeSlabs(body []byte, n, npath, nepoch int, spans []span) ([]*Record, error) {
	d := decoder{b: body, npath: npath, nepoch: nepoch,
		paths: make([]netsim.NodeID, npath), epochs: make([]simtime.EpochRange, nepoch)}
	slab := make([]Record, n)
	out := make([]*Record, n)
	for i := range slab {
		if spans != nil {
			d.b = body[spans[i].lo:spans[i].hi]
		}
		out[i] = &slab[i]
		if d.record(out[i], true); d.bad {
			break
		}
	}
	if spans == nil { // a filtered pass has validated the body already
		if err := d.check(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ScanSegment validates segment b as DecodeSegment does, then calls fn, in
// order, for every record keep admits (nil admits all) with the record — a
// scratch holding every field but EpochBytes — and its encoding within b,
// both valid only during the call. It returns the segment's record count; on
// an error fn is never called. It is how a record leaves a segment as bytes:
// the cold tier's matches join a host answer this way, undecoded.
func ScanSegment(b []byte, keep func(*Record) bool, fn func(r *Record, enc []byte)) (int, error) {
	body, nrec, npath, nepoch, err := segmentBody(b)
	if err != nil {
		return 0, err
	}
	if keep == nil {
		keep = func(*Record) bool { return true }
	}
	var spanBuf [64]span
	sc := new(Scratch) // one allocation: it escapes through keep and fn
	spans, _, _, err := admit(body, nrec, npath, nepoch, keep, sc, spanBuf[:0])
	if err != nil {
		return 0, err
	}
	for _, s := range spans {
		enc := body[s.lo:s.hi:s.hi]
		d := decoder{b: enc, npath: len(enc), nepoch: len(enc), paths: sc.paths[:], epochs: sc.epochs[:]}
		d.record(&sc.rec, false)
		fn(&sc.rec, enc)
	}
	return nrec, nil
}

// SpliceSegment appends one segment whose records are encs, in order, each
// exactly one record as AppendRecord writes it: over the encodings of recs,
// the bytes AppendSegment(dst, recs) appends. This is how a host answer is
// assembled from stored and cold record bytes without decoding them. Each
// range's layout — its varints and counts, not their values — is walked on
// its own: a range that is not exactly one record's layout fails the splice
// and dst comes back unchanged, and a value out of range fails the
// segment's decode. dst grows at most once.
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
		p, e, ok := recordShape(enc)
		if !ok {
			return dst[:start], fmt.Errorf("flowrec: splice segment: range %d is not one record", i)
		}
		paths, epochs = paths+p, epochs+e
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

// recordShape walks the layout of the one record enc should hold and
// returns its path and epoch counts, or ok false when enc is not exactly one
// record's layout.
func recordShape(enc []byte) (paths, epochs int, ok bool) {
	if len(enc) < fixedRecordLen {
		return 0, 0, false
	}
	b, ok := skipVarints(enc[fixedRecordLen:], 6) // TagIdx … LastSeen
	if paths, b, ok = count(b, ok, 1); ok {
		b, ok = skipVarints(b, paths)
	}
	if epochs, b, ok = count(b, ok, 2); ok {
		b, ok = skipVarints(b, 2*epochs)
	}
	entries, b, ok := count(b, ok, 2) // 0 = nil EpochBytes, else entries+1
	if ok && entries > 0 {
		b, ok = skipVarints(b, 2*(entries-1))
	}
	return paths, epochs, ok && len(b) == 0
}

// count reads, when ok, a uvarint count of things that take at least per
// bytes each of b.
func count(b []byte, ok bool, per int) (int, []byte, bool) {
	if !ok {
		return 0, nil, false
	}
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)/per+1) {
		return 0, nil, false
	}
	return int(n), b[k:], true
}

// skipVarints returns b past its first k varints, without reading their
// values, or false when b ends first.
func skipVarints(b []byte, k int) ([]byte, bool) {
	for ; k > 0; k-- {
		i := 0
		for i < len(b) && b[i] >= 0x80 {
			i++
		}
		if i >= len(b) || i >= binary.MaxVarintLen64 {
			return nil, false
		}
		b = b[i+1:]
	}
	return b, true
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

// DecodeRecord decodes enc, exactly one record as AppendRecord writes it,
// into a fresh record the caller owns.
func DecodeRecord(enc []byte) (*Record, error) {
	r := new(Record)
	d := decoder{b: enc, npath: len(enc), nepoch: len(enc)}
	if d.record(r, true); d.bad || len(d.b) != 0 {
		return nil, errors.New("flowrec: corrupt record encoding")
	}
	return r, nil
}

// Scratch decodes records one at a time into storage it reuses: each Decode
// overwrites the record the previous one returned, so nothing decoded may be
// kept past the next call. The zero Scratch is ready; after its first use a
// decode of up to 16 hops allocates nothing.
type Scratch struct {
	rec    Record
	paths  [16]netsim.NodeID
	epochs [16]simtime.EpochRange
	bytes  map[simtime.Epoch]uint64
}

// Decode decodes enc, exactly one record as AppendRecord writes it, into the
// scratch record, EpochBytes included.
func (s *Scratch) Decode(enc []byte) (*Record, error) {
	if s.bytes == nil {
		s.bytes = make(map[simtime.Epoch]uint64)
	}
	d := decoder{b: enc, npath: len(enc), nepoch: len(enc), paths: s.paths[:], epochs: s.epochs[:], eb: s.bytes}
	if d.record(&s.rec, true); d.bad || len(d.b) != 0 {
		return nil, errors.New("flowrec: corrupt record encoding")
	}
	return &s.rec, nil
}

// segmentBody checks segment b's header against its length and returns the
// body with the header's three counts.
func segmentBody(b []byte) (body []byte, nrec, npath, nepoch int, err error) {
	total, err := SegmentLen(b)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	nrec = int(binary.LittleEndian.Uint32(b[4:]))
	npath = int(binary.LittleEndian.Uint32(b[8:]))
	nepoch = int(binary.LittleEndian.Uint32(b[12:]))
	body = b[SegmentHeaderLen:]
	if total != len(b) || uint64(nrec)*minRecordLen+uint64(npath)+2*uint64(nepoch) > uint64(len(body)) {
		return nil, 0, 0, 0, fmt.Errorf("flowrec: corrupt segment: %d bytes cannot hold what the header declares", len(b))
	}
	return body, nrec, npath, nepoch, nil
}

// span is where one record's encoding lies within a segment body.
type span struct{ lo, hi int }

// admit is the validating pass of a filtered read: it decodes every record of
// body into sc (EpochBytes aside), runs keep on it, and appends to spans where each
// admitted record lies. It returns those spans with the admitted records'
// path and epoch totals, or an error when the body does not match the
// header's counts.
func admit(body []byte, nrec, npath, nepoch int, keep func(*Record) bool, sc *Scratch, spans []span) ([]span, int, int, error) {
	d := decoder{b: body, npath: npath, nepoch: nepoch}
	npath, nepoch = 0, 0
	for range nrec {
		at := len(body) - len(d.b)
		d.paths, d.epochs = sc.paths[:], sc.epochs[:]
		if d.record(&sc.rec, false); d.bad {
			break
		}
		if keep(&sc.rec) {
			if len(spans) == cap(spans) {
				spans = slices.Grow(spans, nrec-len(spans)) // at most once
			}
			spans = append(spans, span{at, len(body) - len(d.b)})
			npath += len(sc.rec.Path)
			nepoch += len(sc.rec.Epochs)
		}
	}
	if err := d.check(); err != nil {
		return nil, 0, 0, err
	}
	return spans, npath, nepoch, nil
}

// decoder is a bounds-checked cursor with a sticky failure: after the first
// short or out-of-range read every read returns zero; bad is checked once.
// npath and nepoch count what the header still declares; records cut their
// Path and Epochs from the fronts of paths and epochs, and a non-nil eb is
// the map a kept EpochBytes reuses.
type decoder struct {
	b             []byte
	bad           bool
	npath, nepoch int
	paths         []netsim.NodeID
	epochs        []simtime.EpochRange
	eb            map[simtime.Epoch]uint64
}

// record decodes the record at the cursor into r. The EpochBytes pairs are
// always validated, but kept only withBytes: in d.eb, cleared, or else in a
// new map.
func (d *decoder) record(r *Record, withBytes bool) {
	if len(d.b) < fixedRecordLen {
		d.bad = true
		return
	}
	r.Flow = FlowOf(d.b)
	r.Priority = d.b[13]
	d.b = d.b[fixedRecordLen:]
	r.TagIdx = int(zigzag(d.uvarint()))
	r.TagLink = topo.LinkID(d.bounded(math.MaxUint32))
	r.Bytes = d.uvarint()
	r.Pkts = d.uvarint()
	r.FirstSeen = simtime.Time(zigzag(d.uvarint()))
	r.LastSeen = simtime.Time(zigzag(d.uvarint()))
	r.Path, r.Epochs, r.EpochBytes = nil, nil, nil
	// Counts are bounded by what the header still declares. A buffer short of
	// one is a filtered pass's scratch, never a slab.
	n := int(d.bounded(uint64(d.npath)))
	if d.npath -= n; n > 0 {
		if len(d.paths) < n {
			d.paths = make([]netsim.NodeID, n)
		}
		r.Path, d.paths = d.paths[:n:n], d.paths[n:]
		for j := range r.Path {
			r.Path[j] = netsim.NodeID(uint32(d.bounded(math.MaxUint32)))
		}
	}
	n = int(d.bounded(uint64(d.nepoch)))
	if d.nepoch -= n; n > 0 {
		if len(d.epochs) < n {
			d.epochs = make([]simtime.EpochRange, n)
		}
		r.Epochs, d.epochs = d.epochs[:n:n], d.epochs[n:]
		for j := range r.Epochs {
			r.Epochs[j].Lo = simtime.Epoch(zigzag(d.uvarint()))
			r.Epochs[j].Hi = simtime.Epoch(zigzag(d.uvarint()))
		}
	}
	// An entry takes two bytes or more, which bounds the map's size.
	if n := d.bounded(uint64(len(d.b)/2) + 1); n > 0 {
		if withBytes {
			if r.EpochBytes = d.eb; r.EpochBytes != nil {
				clear(r.EpochBytes)
			} else {
				r.EpochBytes = make(map[simtime.Epoch]uint64, n-1)
			}
		}
		for j, prev := uint64(1), simtime.Epoch(0); j < n; j++ {
			e := simtime.Epoch(zigzag(d.uvarint()))
			d.bad = d.bad || (j > 1 && e <= prev) // the encoder's list is sorted
			v := d.uvarint()
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

// uvarint reads one uvarint, as binary.Uvarint does but small enough to
// inline: a record is two dozen of them.
func (d *decoder) uvarint() uint64 {
	var v uint64
	for i, c := range d.b {
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 { // past 64 bits
				break
			}
			d.b = d.b[i+1:]
			return v | uint64(c)<<(7*i)
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	d.b, d.bad = nil, true
	return 0
}

// bounded reads one uvarint no greater than limit.
func (d *decoder) bounded(limit uint64) uint64 {
	if v := d.uvarint(); v <= limit {
		return v
	}
	d.b, d.bad = nil, true
	return 0
}

// zigzag undoes a varint's zigzag mapping, as binary.Varint does.
func zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

package flowrec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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

// segMagic opens every segment; gob lengths start below 0x80 or above 0xF7,
// so the first byte tells a legacy gob segment from this format.
var segMagic = [3]byte{0x89, 'S', 'P'}

// HasSegmentMagic reports whether b starts like a segment, of any version.
func HasSegmentMagic(b []byte) bool {
	return len(b) >= len(segMagic) && [3]byte(b) == segMagic
}

// SegmentLen returns the total encoded length, header included, that a
// segment header declares.
func SegmentLen(hdr []byte) (int, error) {
	if len(hdr) < SegmentHeaderLen || !HasSegmentMagic(hdr) {
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
	for _, e := range r.SortedEpochs() {
		dst = binary.AppendVarint(dst, int64(e))
		dst = binary.AppendUvarint(dst, r.EpochBytes[e])
	}
	return dst
}

// AppendSegment appends one self-delimiting segment holding recs to dst.
func AppendSegment(dst []byte, recs []*Record) ([]byte, error) {
	var paths, epochs int
	for _, r := range recs {
		paths += len(r.Path)
		epochs += len(r.Epochs)
	}
	start := len(dst)
	dst = slices.Grow(dst, SegmentHeaderLen+48*len(recs)+2*paths+6*epochs)
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

// DecodeSegment decodes exactly one segment. The header's counts are checked
// against len(b) before anything is sized from them, so a forged input cannot
// make it allocate out of proportion to its length. Records, paths and epoch
// ranges come out of three slabs; each Path and Epochs is capped to its own
// length, so an append (Absorb on a rerouted flow) reallocates.
func DecodeSegment(b []byte) ([]*Record, error) {
	total, err := SegmentLen(b)
	if err != nil {
		return nil, err
	}
	nrec := uint64(binary.LittleEndian.Uint32(b[4:]))
	npath := uint64(binary.LittleEndian.Uint32(b[8:]))
	nepoch := uint64(binary.LittleEndian.Uint32(b[12:]))
	if total != len(b) || nrec*minRecordLen+npath+2*nepoch > uint64(len(b)-SegmentHeaderLen) {
		return nil, fmt.Errorf("flowrec: corrupt segment: %d bytes cannot hold what the header declares", len(b))
	}
	d := decoder{b: b[SegmentHeaderLen:]}
	slab := make([]Record, nrec)
	out := make([]*Record, nrec)
	paths := make([]netsim.NodeID, npath)
	epochs := make([]simtime.EpochRange, nepoch)
	for i := range slab {
		r := &slab[i]
		out[i] = r
		if len(d.b) < fixedRecordLen {
			d.bad = true
			break
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
		if n := d.uvarint(uint64(len(paths))); n > 0 {
			r.Path, paths = paths[:n:n], paths[n:]
			for j := range r.Path {
				r.Path[j] = netsim.NodeID(uint32(d.uvarint(math.MaxUint32)))
			}
		}
		if n := d.uvarint(uint64(len(epochs))); n > 0 {
			r.Epochs, epochs = epochs[:n:n], epochs[n:]
			for j := range r.Epochs {
				r.Epochs[j].Lo = simtime.Epoch(d.varint())
				r.Epochs[j].Hi = simtime.Epoch(d.varint())
			}
		}
		// An entry takes two bytes or more, which bounds the map's size.
		if n := d.uvarint(uint64(len(d.b)/2) + 1); n > 0 {
			r.EpochBytes = make(map[simtime.Epoch]uint64, n-1)
			for j, prev := uint64(1), simtime.Epoch(0); j < n; j++ {
				e := simtime.Epoch(d.varint())
				d.bad = d.bad || (j > 1 && e <= prev) // the encoder's list is sorted
				r.EpochBytes[e], prev = d.uvarint(math.MaxUint64), e
			}
		}
	}
	if d.bad || len(d.b) != 0 || len(paths) != 0 || len(epochs) != 0 {
		return nil, errors.New("flowrec: corrupt segment: body does not match the header's counts")
	}
	return out, nil
}

// decoder is a bounds-checked cursor with a sticky failure: after the first
// short or out-of-range read every read returns zero; bad is checked once.
type decoder struct {
	b   []byte
	bad bool
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

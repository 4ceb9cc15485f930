package cluster

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/varint"
)

// A report's per-flow lists — its culprits and its top-k flows — cross the
// wire as columns: each is one JSON string, the standard base64 of its
// entries' fields as varints, instead of one JSON object per entry. The
// layouts are on CulpritColumn and FlowColumn; uvarint and varint (zigzag)
// are written by encoding/binary's Append functions and read by
// internal/varint's Reader, the one reader under every binary format here.
// A decoder refuses a count the bytes present cannot hold before sizing
// anything from it, a value that overflows its field, trailing bytes, and
// anything but a string (a JSON array included); every error names the
// column, and the entry and field where it has one. null
// decodes as an empty column. Encode and decode go through pooled scratch, so
// each allocates only what it returns.

// CulpritColumn is WireReport.Culprits, in the analyzer's order. Its JSON
// form is one base64 string of
//
//	uvarint       count
//	per culprit:
//	uvarint ×2    Flow.Src, Flow.Dst
//	uvarint ×3    Flow.SrcPort, Flow.DstPort, Flow.Proto
//	uvarint ×2    Priority, Bytes
//	varint        Switch
//	uvarint       Host
//	varint ×2     Overlap.Lo, Overlap.Hi
type CulpritColumn []analyzer.Culprit

// FlowColumn is WireReport.Flows, in the analyzer's order. Its JSON form is
// one base64 string of
//
//	uvarint       count
//	per flow:
//	uvarint ×2    Flow.Src, Flow.Dst
//	uvarint ×3    Flow.SrcPort, Flow.DstPort, Flow.Proto
//	uvarint       Bytes
type FlowColumn []hostagent.FlowBytes

// Every field takes at least one byte, so an entry takes at least this many.
const (
	minCulpritLen = 11
	minFlowLen    = 6
)

// MarshalJSON encodes the column.
func (c CulpritColumn) MarshalJSON() ([]byte, error) { return marshalColumn(c, appendCulprit) }

// UnmarshalJSON decodes the column, strictly.
func (c *CulpritColumn) UnmarshalJSON(data []byte) error {
	col, err := unmarshalColumn("culprits", data, minCulpritLen, readCulprit)
	*c = col
	return err
}

// MarshalJSON encodes the column.
func (c FlowColumn) MarshalJSON() ([]byte, error) { return marshalColumn(c, appendFlowBytes) }

// UnmarshalJSON decodes the column, strictly.
func (c *FlowColumn) UnmarshalJSON(data []byte) error {
	col, err := unmarshalColumn("flows", data, minFlowLen, readFlowBytes)
	*c = col
	return err
}

func appendFlowKey(dst []byte, f *netsim.FlowKey) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.Src))
	dst = binary.AppendUvarint(dst, uint64(f.Dst))
	dst = binary.AppendUvarint(dst, uint64(f.SrcPort))
	dst = binary.AppendUvarint(dst, uint64(f.DstPort))
	return binary.AppendUvarint(dst, uint64(f.Proto))
}

func appendCulprit(dst []byte, c *analyzer.Culprit) []byte {
	dst = appendFlowKey(dst, &c.Flow)
	dst = binary.AppendUvarint(dst, uint64(c.Priority))
	dst = binary.AppendUvarint(dst, c.Bytes)
	dst = binary.AppendVarint(dst, int64(c.Switch))
	dst = binary.AppendUvarint(dst, uint64(c.Host))
	dst = binary.AppendVarint(dst, int64(c.Overlap.Lo))
	return binary.AppendVarint(dst, int64(c.Overlap.Hi))
}

func appendFlowBytes(dst []byte, f *hostagent.FlowBytes) []byte {
	dst = appendFlowKey(dst, &f.Flow)
	return binary.AppendUvarint(dst, f.Bytes)
}

func readFlowKey(r *varint.Reader, f *netsim.FlowKey) {
	f.Src = netsim.IPv4(r.Bounded("flow.src", math.MaxUint32))
	f.Dst = netsim.IPv4(r.Bounded("flow.dst", math.MaxUint32))
	f.SrcPort = uint16(r.Bounded("flow.src_port", math.MaxUint16))
	f.DstPort = uint16(r.Bounded("flow.dst_port", math.MaxUint16))
	f.Proto = netsim.Protocol(r.Bounded("flow.proto", math.MaxUint8))
}

func readCulprit(r *varint.Reader, c *analyzer.Culprit) {
	readFlowKey(r, &c.Flow)
	c.Priority = uint8(r.Bounded("priority", math.MaxUint8))
	c.Bytes = r.Bounded("bytes", math.MaxUint64)
	c.Switch = netsim.NodeID(r.Varint("switch", math.MaxUint32)) // the int32s
	c.Host = netsim.IPv4(r.Bounded("host", math.MaxUint32))
	c.Overlap.Lo = simtime.Epoch(r.Varint("overlap.lo", math.MaxUint64))
	c.Overlap.Hi = simtime.Epoch(r.Varint("overlap.hi", math.MaxUint64))
}

func readFlowBytes(r *varint.Reader, f *hostagent.FlowBytes) {
	readFlowKey(r, &f.Flow)
	f.Bytes = r.Bounded("bytes", math.MaxUint64)
}

// columnEncoding is the base64 of every column: standard and padded, as
// encoding/json writes a []byte.
var columnEncoding = base64.StdEncoding

// columnScratch holds the raw bytes between the entries and their base64.
// A buffer grown past maxScratch is dropped instead of returned, so one
// oversized report pins nothing.
var columnScratch = sync.Pool{New: func() any { return new([]byte) }}

const maxScratch = 1 << 20

func putScratch(sp *[]byte, b []byte) {
	if cap(b) <= maxScratch {
		*sp = b[:0]
		columnScratch.Put(sp)
	}
}

// marshalColumn is both columns' encoder: the count and every entry into
// pooled scratch, then the quoted base64 of it into the one buffer returned.
func marshalColumn[T any](col []T, appendOne func([]byte, *T) []byte) ([]byte, error) {
	sp := columnScratch.Get().(*[]byte)
	raw := binary.AppendUvarint((*sp)[:0], uint64(len(col)))
	for i := range col {
		raw = appendOne(raw, &col[i])
	}
	out := make([]byte, 0, columnEncoding.EncodedLen(len(raw))+2)
	out = append(out, '"')
	out = columnEncoding.AppendEncode(out, raw)
	out = append(out, '"')
	putScratch(sp, raw)
	return out, nil
}

// unmarshalColumn is both columns' decoder: data is the JSON value where the
// column belongs; each entry takes at least minLen bytes.
func unmarshalColumn[T any](name string, data []byte, minLen int, readOne func(*varint.Reader, *T)) ([]T, error) {
	if string(data) == "null" {
		return nil, nil
	}
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		if len(data) > 0 && data[0] == '[' {
			return nil, fmt.Errorf("cluster: %s: a JSON array, want the column's base64 string", name)
		}
		return nil, fmt.Errorf("cluster: %s: want the column's base64 string", name)
	}
	sp := columnScratch.Get().(*[]byte)
	raw, err := columnEncoding.AppendDecode((*sp)[:0], data[1:len(data)-1])
	defer putScratch(sp, raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", name, err)
	}
	r := varint.NewReader(raw)
	n := r.Uvarint()
	if r.Bad() {
		return nil, fmt.Errorf("cluster: %s: no entry count", name)
	}
	if left := r.Len(); n > uint64(left/minLen) {
		return nil, fmt.Errorf("cluster: %s: %d entries declared, %d bytes cannot hold more than %d", name, n, left, left/minLen)
	}
	var col []T // empty decodes as nil, as an omitted column leaves it
	if n > 0 {
		col = make([]T, n)
	}
	for i := range col {
		if readOne(&r, &col[i]); r.Bad() {
			return nil, fmt.Errorf("cluster: %s[%d].%w", name, i, r.Err())
		}
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("cluster: %s: %d trailing bytes", name, r.Len())
	}
	return col, nil
}

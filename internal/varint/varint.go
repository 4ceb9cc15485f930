// Package varint is the one reader under every binary format this module
// decodes: flow records and segments, the host store's arena, pointer
// snapshots and slot lists, and a /diagnose report's columns. Each writes
// with encoding/binary's Append functions and reads back through a Reader.
// A Reader's first fault (a read past the input, a uvarint past 64 bits, a
// value over its caller's limit) sticks: every later read returns zero, so
// Bad is checked once after a run of reads. The fault names its field and
// is formatted only when its error is printed.
package varint

import (
	"fmt"
	"math/bits"
)

// Reader reads varints from a byte slice. It fits in registers once its
// reads inline, as Uvarint always does.
type Reader struct {
	b     []byte
	fault *fault // the first fault; nil while every read has succeeded
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Uvarint reads one uvarint, accepting exactly what binary.Uvarint does, in
// a loop small enough to inline: a flow record is two dozen of them.
func (r *Reader) Uvarint() uint64 {
	var v uint64
	for i, c := range r.b {
		s := uint(7*i) & 63 // the mask spares each shift a range check
		if c < 0x80 {
			if i > 9 || i == 9 && c > 1 { // past 64 bits
				break
			}
			r.b = r.b[i+1:]
			return v | uint64(c)<<s
		}
		v |= uint64(c&0x7f) << s
	}
	r.b = nil
	if r.fault == nil {
		r.fault = errUvarint
	}
	return 0
}

// Bounded reads one uvarint no greater than limit.
func (r *Reader) Bounded(field string, limit uint64) uint64 {
	if r.fault != nil {
		return 0
	}
	if v := r.Uvarint(); r.fault != nil {
		r.fault = &fault{field: field, what: errUvarint.what}
	} else if v > limit {
		r.b, r.fault = nil, &fault{field: field, v: v}
	} else {
		return v
	}
	return 0
}

// Varint reads one zigzag varint whose zigzag form is no greater than limit:
// math.MaxUint64 admits every int64, math.MaxUint32 exactly the int32s.
func (r *Reader) Varint(field string, limit uint64) int64 {
	if r.fault != nil {
		return 0
	}
	if u := r.Uvarint(); r.fault != nil {
		r.fault = &fault{field: field, what: "truncated or overlong varint"}
	} else if u > limit {
		r.b, r.fault = nil, &fault{field: field, v: Zigzag(u)}
	} else {
		return Zigzag(u)
	}
	return 0
}

// Byte reads one byte.
func (r *Reader) Byte(field string) byte {
	if r.fault != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fault = &fault{field: field, what: "truncated byte"}
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Bad reports whether a read has failed.
func (r *Reader) Bad() bool { return r.fault != nil }

// Err returns the first fault, "field: what", or nil.
func (r *Reader) Err() error {
	if r.fault == nil {
		return nil
	}
	return r.fault
}

// Rest returns the bytes not yet read: nil after a fault.
func (r *Reader) Rest() []byte { return r.b }

// Len returns how many bytes are left to read.
func (r *Reader) Len() int { return len(r.b) }

// Zigzag undoes a varint's zigzag mapping, as binary.Varint does.
func Zigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// UvarintLen is len(binary.AppendUvarint(nil, x)).
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// VarintLen is len(binary.AppendVarint(nil, x)).
func VarintLen(x int64) int { return UvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// fault is a Reader's first fault: what went wrong, or the value v that
// overflowed.
type fault struct {
	field, what string
	v           any
}

// errUvarint is a bare Uvarint's fault, which names no field.
var errUvarint = &fault{what: "truncated or overlong uvarint"}

func (f *fault) Error() string {
	what := f.what
	if what == "" {
		what = fmt.Sprint(f.v, " overflows")
	}
	if f.field == "" {
		return what
	}
	return f.field + ": " + what
}

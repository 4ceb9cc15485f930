// Package bitset provides the fixed-size bit array used for SwitchPointer's
// per-epoch pointer sets.
//
// A pointer set is one bit per potential destination end-host: bit i is set
// when the switch forwarded at least one packet to the host whose minimal
// perfect hash index is i during the set's time window. The paper sizes these
// at the maximum number of end-hosts in the datacenter (e.g. 100 Kbit for
// 100 K hosts, §4.1.2), which is exactly what this package stores.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a fixed-size bit array. The zero value is an empty set of size 0;
// use New to create a sized set.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set holding n bits, all zero.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits the set holds.
func (s *Set) Len() int { return s.n }

// SizeBytes returns the in-memory size of the bit array itself in bytes.
// This is the S/8 term in the paper's switch-memory accounting.
func (s *Set) SizeBytes() int { return len(s.words) * 8 }

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Set(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (s *Set) Get(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Get(%d) out of range [0,%d)", i, s.n))
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Reset zeroes every bit, keeping the capacity. This is the O(S) slot-recycle
// operation the switch control-plane agent performs on rotation.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// UnionWith ORs o into s. Both sets must have the same length.
func (s *Set) UnionWith(o *Set) {
	if s.n != o.n {
		panic("bitset: UnionWith size mismatch")
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// ForEach calls fn for every set bit in ascending order. It stops early if fn
// returns false.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Indices returns the positions of all set bits in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Equal reports whether s and o hold identical contents.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// MarshalBinary encodes the set as 8 bytes of length followed by the words in
// little-endian order. It never returns an error.
func (s *Set) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8+len(s.words)*8)
	binary.LittleEndian.PutUint64(buf, uint64(s.n))
	for i, w := range s.words {
		binary.LittleEndian.PutUint64(buf[8+i*8:], w)
	}
	return buf, nil
}

// UnmarshalBinary decodes a set previously encoded with MarshalBinary,
// rejecting a size the payload does not match and bits set past the size.
func (s *Set) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitset: truncated header (%d bytes)", len(data))
	}
	n, nw := binary.LittleEndian.Uint64(data), uint64(len(data)-8)/8
	if n > nw*wordBits || (n+wordBits-1)/wordBits != nw || len(data)%8 != 0 {
		return fmt.Errorf("bitset: size %d does not fit %d payload bytes", n, len(data)-8)
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8+i*8:])
	}
	if r := n % wordBits; r != 0 && words[nw-1]>>r != 0 {
		return fmt.Errorf("bitset: bits set past size %d", n)
	}
	s.n, s.words = int(n), words
	return nil
}

package bitset

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Sparse is a sorted-index set over a fixed universe [0, n): the
// occupancy-proportional container behind the pointer plane's adaptive slot
// backend. Where Set spends n/8 bytes regardless of membership, Sparse
// spends 4 bytes per member — the right trade below ~n/32 members, which is
// exactly the regime a switch's per-epoch pointer slots live in when only a
// small fraction of the datacenter's hosts are active.
//
// Indices are kept sorted and unique, so iteration order, Equal, and the
// binary encoding are all deterministic functions of the membership.
type Sparse struct {
	n   int
	idx []uint32 // sorted, unique
}

// NewSparse returns an empty Sparse set over the universe [0, n).
func NewSparse(n int) *Sparse {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Sparse{n: n}
}

// Len returns the universe size n.
func (s *Sparse) Len() int { return s.n }

// Count returns the number of members.
func (s *Sparse) Count() int { return len(s.idx) }

// Add inserts i, keeping the index list sorted and unique. It panics if i is
// out of range. Cost is O(log c) to locate plus O(c) to shift on a true
// insert (c = occupancy), and O(log c) for the common already-present case.
func (s *Sparse) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Add(%d) out of range [0,%d)", i, s.n))
	}
	v := uint32(i)
	p := sort.Search(len(s.idx), func(j int) bool { return s.idx[j] >= v })
	if p < len(s.idx) && s.idx[p] == v {
		return
	}
	s.idx = append(s.idx, 0)
	copy(s.idx[p+1:], s.idx[p:])
	s.idx[p] = v
}

// Reset empties the set, keeping the index capacity for reuse — the
// O(occupancy) slot-recycle operation (truncation; no per-universe work).
func (s *Sparse) Reset() { s.idx = s.idx[:0] }

// ForEach calls fn for every member in ascending order, stopping early if fn
// returns false.
func (s *Sparse) ForEach(fn func(i int) bool) {
	for _, v := range s.idx {
		if !fn(int(v)) {
			return
		}
	}
}

// AddTo sets every member's bit in dst, which must span the same universe.
func (s *Sparse) AddTo(dst *Set) {
	if dst.Len() != s.n {
		panic("bitset: AddTo size mismatch")
	}
	for _, v := range s.idx {
		dst.Set(int(v))
	}
}

// Clone returns a deep copy of s.
func (s *Sparse) Clone() *Sparse {
	c := &Sparse{n: s.n, idx: make([]uint32, len(s.idx))}
	copy(c.idx, s.idx)
	return c
}

// Equal reports whether s and o hold identical membership over the same
// universe.
func (s *Sparse) Equal(o *Sparse) bool {
	if s.n != o.n || len(s.idx) != len(o.idx) {
		return false
	}
	for i, v := range s.idx {
		if o.idx[i] != v {
			return false
		}
	}
	return true
}

// MemoryBytes returns the resident size of the index storage in bytes
// (capacity, not length: a recycled slot keeps its buffer).
func (s *Sparse) MemoryBytes() int { return cap(s.idx) * 4 }

// MarshalBinary encodes the set deterministically: 8 bytes of universe size,
// 8 bytes of member count, then each member as 4 little-endian bytes in
// ascending order. It never returns an error.
func (s *Sparse) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 16+len(s.idx)*4)
	binary.LittleEndian.PutUint64(buf, uint64(s.n))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(s.idx)))
	for i, v := range s.idx {
		binary.LittleEndian.PutUint32(buf[16+i*4:], v)
	}
	return buf, nil
}

// UnmarshalBinary decodes a set previously encoded with MarshalBinary,
// rejecting truncated payloads and out-of-order or out-of-range indices.
func (s *Sparse) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("bitset: sparse: truncated header (%d bytes)", len(data))
	}
	n := int(binary.LittleEndian.Uint64(data))
	c := int(binary.LittleEndian.Uint64(data[8:]))
	if n < 0 || c < 0 || c != (len(data)-16)/4 || len(data)%4 != 0 {
		return fmt.Errorf("bitset: sparse: size %d count %d does not fit %d payload bytes", n, c, len(data)-16)
	}
	idx := make([]uint32, c)
	for i := range idx {
		v := binary.LittleEndian.Uint32(data[16+i*4:])
		if int(v) >= n {
			return fmt.Errorf("bitset: sparse: index %d out of range [0,%d)", v, n)
		}
		if i > 0 && v <= idx[i-1] {
			return fmt.Errorf("bitset: sparse: indices not strictly ascending at %d", i)
		}
		idx[i] = v
	}
	s.n = n
	s.idx = idx
	return nil
}

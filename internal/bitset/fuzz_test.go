package bitset

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzUnmarshal feeds the same bytes to Set.UnmarshalBinary and
// Sparse.UnmarshalBinary, the decoders every /pointers body and every
// restored pointer-slot payload reaches. Neither may panic nor allocate out
// of proportion to the input: the constant covers whatever the fuzzing
// engine allocates meanwhile, since TotalAlloc counts the whole process.
// Whatever a decoder accepts must be the one encoding of the members it
// names: the set rebuilt from those members through Set or Add (which panic
// out of range, and Add sorts and deduplicates) marshals back to the same
// bytes, so an index past the size or out of order cannot slip through. The
// committed corpus (testdata/fuzz) holds a valid dense and a valid sparse
// encoding, a truncated header, a size the payload length does not match, a
// bit set past the size and a sparse index list that does not ascend.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := 1<<18 + 4*uint64(len(data))
		var dense Set
		var err error
		if grew := allocated(func() { err = dense.UnmarshalBinary(data) }); grew > limit {
			t.Fatalf("Set: decoding %d bytes allocated %d", len(data), grew)
		}
		if err == nil {
			rebuilt := New(dense.Len())
			dense.ForEach(func(i int) bool { rebuilt.Set(i); return true })
			if again, _ := rebuilt.MarshalBinary(); !bytes.Equal(again, data) {
				t.Fatalf("Set: accepted bytes are not the encoding of their members\n got %x\nwant %x", again, data)
			}
		}
		var sparse Sparse
		if grew := allocated(func() { err = sparse.UnmarshalBinary(data) }); grew > limit {
			t.Fatalf("Sparse: decoding %d bytes allocated %d", len(data), grew)
		}
		if err == nil {
			rebuilt := NewSparse(sparse.Len())
			sparse.ForEach(func(i int) bool { rebuilt.Add(i); return true })
			if again, _ := rebuilt.MarshalBinary(); !bytes.Equal(again, data) {
				t.Fatalf("Sparse: accepted bytes are not the encoding of their members\n got %x\nwant %x", again, data)
			}
		}
	})
}

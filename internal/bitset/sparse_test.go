package bitset

import (
	"math/rand"
	"testing"
)

func TestSparseBasics(t *testing.T) {
	s := NewSparse(100)
	if s.Count() != 0 || s.Len() != 100 {
		t.Fatalf("fresh sparse: count=%d len=%d", s.Count(), s.Len())
	}
	for _, i := range []int{7, 3, 99, 3, 0, 7} {
		s.Add(i)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (duplicates collapse)", s.Count())
	}
	want := []int{0, 3, 7, 99}
	var got []int
	s.ForEach(func(i int) bool { got = append(got, i); return true })
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("ForEach order = %v, want %v", got, want)
		}
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Reset left %d members", s.Count())
	}
	if s.MemoryBytes() == 0 {
		t.Fatalf("Reset should keep the buffer resident")
	}
}

func TestSparseOutOfRangePanics(t *testing.T) {
	s := NewSparse(8)
	for _, fn := range []func(){func() { s.Add(8) }, func() { s.Add(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSparseAddToMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sp := NewSparse(512)
	dense := New(512)
	for i := 0; i < 200; i++ {
		v := rng.Intn(512)
		sp.Add(v)
		dense.Set(v)
	}
	out := New(512)
	sp.AddTo(out)
	if !out.Equal(dense) {
		t.Fatalf("AddTo diverged from dense oracle")
	}
	if sp.Count() != dense.Count() {
		t.Fatalf("Count %d != dense %d", sp.Count(), dense.Count())
	}
}

func TestSparseMarshalRoundTrip(t *testing.T) {
	sp := NewSparse(1000)
	for _, v := range []int{1, 5, 999, 0} {
		sp.Add(v)
	}
	b1, _ := sp.MarshalBinary()
	b2, _ := sp.Clone().MarshalBinary()
	if string(b1) != string(b2) {
		t.Fatalf("encoding not deterministic")
	}
	var back Sparse
	if err := back.UnmarshalBinary(b1); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(sp) {
		t.Fatalf("round trip diverged")
	}
	// Encoded size scales with occupancy, not universe.
	if len(b1) != 16+4*4 {
		t.Fatalf("encoded size = %d, want %d", len(b1), 16+4*4)
	}
}

func TestSparseUnmarshalRejectsMalformed(t *testing.T) {
	sp := NewSparse(10)
	sp.Add(3)
	sp.Add(5)
	good, _ := sp.MarshalBinary()

	var s Sparse
	if err := s.UnmarshalBinary(good[:10]); err == nil {
		t.Fatalf("truncated header accepted")
	}
	if err := s.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Fatalf("truncated payload accepted")
	}
	bad := append([]byte(nil), good...)
	bad[16], bad[20] = bad[20], bad[16] // swap → descending
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Fatalf("descending indices accepted")
	}
	oor := append([]byte(nil), good...)
	oor[16] = 200 // index 200 in a 10-universe
	if err := s.UnmarshalBinary(oor); err == nil {
		t.Fatalf("out-of-range index accepted")
	}
}

package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicSetGetClear(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Set": func() { s.Set(10) },
		"Get": func() { s.Get(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestResetAndAny(t *testing.T) {
	s := New(100)
	if s.Any() {
		t.Fatalf("fresh set should have Any == false")
	}
	s.Set(99)
	if !s.Any() {
		t.Fatalf("Any should be true")
	}
	s.Reset()
	if s.Any() || s.Count() != 0 {
		t.Fatalf("Reset did not clear")
	}
	if s.Len() != 100 {
		t.Fatalf("Reset changed Len")
	}
}

func TestUnionIntersect(t *testing.T) {
	a, b := New(200), New(200)
	a.Set(1)
	a.Set(100)
	b.Set(100)
	b.Set(150)
	u := a.Clone()
	u.UnionWith(b)
	if !u.Get(1) || !u.Get(100) || !u.Get(150) || u.Count() != 3 {
		t.Fatalf("union wrong: %v", u.Indices())
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on size mismatch")
		}
	}()
	New(64).UnionWith(New(65))
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Set(5)
	c := a.Clone()
	c.Set(6)
	if a.Get(6) {
		t.Fatalf("Clone aliases original")
	}
	if !c.Get(5) {
		t.Fatalf("Clone lost bits")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(300)
	want := []int{2, 64, 65, 191, 299}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	n := 0
	s.ForEach(func(i int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("ForEach early stop visited %d", n)
	}
}

func TestEqual(t *testing.T) {
	a, b := New(128), New(128)
	a.Set(7)
	b.Set(7)
	if !a.Equal(b) {
		t.Fatalf("equal sets reported unequal")
	}
	b.Set(8)
	if a.Equal(b) {
		t.Fatalf("unequal sets reported equal")
	}
	if a.Equal(New(64)) {
		t.Fatalf("different sizes reported equal")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := New(1000)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		s.Set(rng.Intn(1000))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r Set
	if err := r.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(&r) {
		t.Fatalf("round trip mismatch")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s Set
	if err := s.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatalf("truncated header accepted")
	}
	good, _ := New(64).MarshalBinary()
	if err := s.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Fatalf("truncated payload accepted")
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(100000).SizeBytes(); got != 12504 {
		// ceil(100000/64) = 1563 words * 8 bytes. The paper quotes 12.5 KB
		// for a 100K-host pointer, which matches.
		t.Fatalf("SizeBytes = %d, want 12504", got)
	}
}

func TestQuickCountMatchesNaive(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		seen := map[int]bool{}
		for _, i := range idx {
			s.Set(int(i))
			seen[int(i)] = true
		}
		return s.Count() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

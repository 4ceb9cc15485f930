package mph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func distinctKeys(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[uint32]bool, n)
	keys := make([]uint32, 0, n)
	for len(keys) < n {
		k := rng.Uint32()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func checkPerfectMinimal(t *testing.T, tbl *Table, keys []uint32) {
	t.Helper()
	if tbl.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(keys))
	}
	seen := make([]bool, len(keys))
	for _, k := range keys {
		idx := tbl.Lookup(k)
		if idx < 0 || idx >= len(keys) {
			t.Fatalf("Lookup(%d) = %d out of range [0,%d)", k, idx, len(keys))
		}
		if seen[idx] {
			t.Fatalf("collision at index %d", idx)
		}
		seen[idx] = true
	}
	// Perfect + injective into [0,m) of size m ⇒ minimal (bijective).
}

func TestBuildSmall(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 17, 100} {
		keys := distinctKeys(n, int64(n))
		tbl, err := Build(keys)
		if err != nil {
			t.Fatalf("Build(%d keys): %v", n, err)
		}
		checkPerfectMinimal(t, tbl, keys)
	}
}

func TestBuildMedium(t *testing.T) {
	keys := distinctKeys(50000, 7)
	tbl, err := Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	checkPerfectMinimal(t, tbl, keys)
	if bpk := float64(tbl.SizeBytes()*8) / float64(len(keys)); bpk > 6 {
		t.Errorf("bits per key = %.2f, want under 6 (paper's FCH: 2.1)", bpk)
	}
}

func TestBuild100K(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	keys := distinctKeys(100000, 99)
	tbl, err := Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	checkPerfectMinimal(t, tbl, keys)
	// The paper quotes ~70 KB for 100K hosts with FCH; BDZ lands within a
	// small constant factor. Assert we are in the same ballpark (<100 KB).
	if sz := tbl.SizeBytes(); sz > 100*1024 {
		t.Errorf("SizeBytes = %d, want < 100KB", sz)
	}
}

func TestBuildSequentialIPs(t *testing.T) {
	// Datacenter host IPs are typically dense and sequential (10.0.0.0/16
	// style); the hash must not degrade on structured keys.
	keys := make([]uint32, 4096)
	base := uint32(10<<24 | 0<<16 | 0<<8 | 1)
	for i := range keys {
		keys[i] = base + uint32(i)
	}
	tbl, err := Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	checkPerfectMinimal(t, tbl, keys)
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil); err != ErrTooFewKeys {
		t.Fatalf("empty build err = %v", err)
	}
	if _, err := Build([]uint32{1, 2, 1}); err != ErrDuplicateKeys {
		t.Fatalf("duplicate build err = %v", err)
	}
}

func TestLookupDeterministic(t *testing.T) {
	keys := distinctKeys(1000, 3)
	tbl, err := Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:50] {
		a, b := tbl.Lookup(k), tbl.Lookup(k)
		if a != b {
			t.Fatalf("non-deterministic lookup for %d: %d vs %d", k, a, b)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	keys := distinctKeys(5000, 11)
	tbl, err := Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tbl.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r Table
	if err := r.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if r.Lookup(k) != tbl.Lookup(k) {
			t.Fatalf("deserialized table disagrees for key %d", k)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var r Table
	if err := r.UnmarshalBinary([]byte{1}); err == nil {
		t.Fatalf("truncated header accepted")
	}
	keys := distinctKeys(100, 1)
	tbl, _ := Build(keys)
	data, _ := tbl.MarshalBinary()
	if err := r.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Fatalf("truncated body accepted")
	}
	// A chosen bitmap whose popcount is not m ranks keys past Len(). The
	// headers Lookup cannot index are FuzzUnmarshalBinary's seed corpus.
	bad := bytes.Clone(data)
	bad[len(bad)-1] ^= 0x80
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatalf("chosen popcount off by one accepted")
	}
}

func TestQuickRandomKeySets(t *testing.T) {
	f := func(raw []uint32) bool {
		seen := map[uint32]bool{}
		keys := keysDedup(raw, seen)
		if len(keys) == 0 {
			return true
		}
		tbl, err := Build(keys)
		if err != nil {
			return false
		}
		used := make([]bool, len(keys))
		for _, k := range keys {
			i := tbl.Lookup(k)
			if i < 0 || i >= len(keys) || used[i] {
				return false
			}
			used[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func keysDedup(raw []uint32, seen map[uint32]bool) []uint32 {
	keys := raw[:0:0]
	for _, k := range raw {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func TestExpectedCollisions(t *testing.T) {
	// Paper's example: m = 100K keys, target 0.1% collisions needs ~50M
	// buckets (500× the key count).
	m := 100000
	got := BucketsForCollisionTarget(m, 0.001*float64(m))
	if got < 40_000_000 || got > 60_000_000 {
		t.Fatalf("BucketsForCollisionTarget(100K, 0.1%%) = %d, want ≈50M", got)
	}
	// Sanity: collisions decrease as buckets grow.
	if ExpectedCollisions(m, 1_000_000) <= ExpectedCollisions(m, 10_000_000) {
		t.Fatalf("ExpectedCollisions not monotone")
	}
	if ExpectedCollisions(0, 10) != 0 || ExpectedCollisions(10, 0) != 0 {
		t.Fatalf("degenerate inputs should be 0")
	}
}

func TestStrawmanVsMPHMemory(t *testing.T) {
	m := 100000
	buckets := BucketsForCollisionTarget(m, 0.001*float64(m))
	straw := StrawmanTableBytes(buckets)
	keys := distinctKeys(m, 5)
	tbl, err := Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	if straw < 50*tbl.SizeBytes() {
		t.Fatalf("strawman (%d B) should dwarf MPH (%d B)", straw, tbl.SizeBytes())
	}
}

func BenchmarkLookup(b *testing.B) {
	keys := distinctKeys(100000, 21)
	tbl, err := Build(keys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += tbl.Lookup(keys[i%len(keys)])
	}
	_ = sink
}

func BenchmarkBuild10K(b *testing.B) {
	keys := distinctKeys(10000, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(keys); err != nil {
			b.Fatal(err)
		}
	}
}

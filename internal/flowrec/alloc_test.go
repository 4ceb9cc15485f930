//go:build !race

// Allocation pins. The race detector instruments allocations (an encode of
// 256 records reads 258 under -race), so these run in the plain leg only.

package flowrec

import (
	"encoding/binary"
	"runtime"
	"testing"

	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// TestAbsorbZeroAlloc gates the steady-state record path: absorbing another
// packet of an already-known flow on an unchanged path (same trajectory,
// already-seen exact epoch) performs zero heap allocations.
func TestAbsorbZeroAlloc(t *testing.T) {
	flow := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netsim.ProtoTCP}
	dec := header.Decoded{
		Mode:   header.ModeCommodity,
		Path:   []netsim.NodeID{1, 2, 3},
		Epochs: []simtime.EpochRange{{Lo: 5, Hi: 5}, {Lo: 4, Hi: 6}, {Lo: 4, Hi: 7}},
		TagIdx: 0,
	}
	p := &netsim.Packet{Flow: flow, Priority: 2, Size: 1500}
	r := New(flow)
	// First absorb takes the slow path (copies the trajectory).
	r.Absorb(p, dec, 10)
	now := simtime.Time(20)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Absorb(p, dec, now)
		now += 10
	})
	if allocs != 0 {
		t.Fatalf("Record.Absorb steady state: %v allocs/op, want 0", allocs)
	}
	if r.Pkts < 1000 || r.Bytes == 0 {
		t.Fatalf("absorbs lost: %+v", r)
	}
}

// TestDecodeSegmentBoundsAllocation: forged counts are refused before they
// size anything — a 20-byte input cannot make the decoder allocate slabs.
func TestDecodeSegmentBoundsAllocation(t *testing.T) {
	forged := mustEncode(t, nil)
	for _, off := range []int{4, 8, 12} {
		binary.LittleEndian.PutUint32(forged[off:], 1<<32-1)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := decodeAll(forged); err == nil {
			t.Fatal("forged counts decoded")
		}
	})
	if allocs > 8 { // the error value, nothing sized from the counts
		t.Fatalf("forged counts cost %.0f allocations", allocs)
	}
}

// TestDecodeSegmentAllocs pins the decode cost the cold-read path pays: four
// slabs per segment plus the per-record map, at most 3 allocations a record.
func TestDecodeSegmentAllocs(t *testing.T) {
	recs := segment256()
	enc := mustEncode(t, recs)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodeAll(enc); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(len(recs)); per > 3 {
		t.Fatalf("decode costs %.2f allocations per record (%.0f per segment), want ≤ 3", per, allocs)
	}
}

// TestAppendSegmentAllocs pins the encoder every record path shares (disk,
// /snapshot, the host answers, /ingest): appending into a buffer with room
// allocates nothing, and appending to nil grows once, by the segment's
// length — at most 1.15× the encoded bytes of 5-hop records, where a
// per-record estimate reserved 88 B for ≈ 62.
func TestAppendSegmentAllocs(t *testing.T) {
	recs := segment256()
	enc := mustEncode(t, recs)
	buf := make([]byte, 0, len(enc))
	if allocs := testing.AllocsPerRun(20, func() { mustEncodeInto(t, buf, recs) }); allocs != 0 {
		t.Fatalf("an append into a buffer with room costs %.0f allocations, want 0", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { mustEncode(t, recs) })
	runtime.ReadMemStats(&after)
	grown := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if allocs != 1 || grown > 1.15*float64(len(enc)) {
		t.Fatalf("encoding %d 5-hop records costs %.0f allocations and %.0f B (%.1f B a record), want 1 of ≤ 1.15 × %d B",
			len(recs), allocs, grown, grown/float64(len(recs)), len(enc))
	}
}

// TestSpliceAndScratchAllocs pins the host answer path: splicing 256
// encodings into a buffer with room, validation included, allocates nothing,
// and neither does a scratch decode once the scratch has decoded a record.
func TestSpliceAndScratchAllocs(t *testing.T) {
	recs := segment256()
	encs := encodings(recs)
	buf := make([]byte, 0, len(mustEncode(t, recs)))
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := SpliceSegment(buf, encs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a splice into a buffer with room costs %.0f allocations, want 0", allocs)
	}
	var sc Scratch
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sc.Decode(encs[i%len(encs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("a scratch decode costs %.0f allocations, want 0", allocs)
	}
}

// TestFilteredDecodeAllocs pins what a predicate saves: a segment whose
// records are all rejected costs the scratch record and nothing sized by the
// segment, and each admitted record costs its map, on top of a few slabs.
func TestFilteredDecodeAllocs(t *testing.T) {
	enc := mustEncode(t, segment256())
	const runs = 50
	measure := func(n int) (allocs, bytes float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			if _, _, err := DecodeSegment(enc, everyNth(n)); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	}
	if allocs, bytes := measure(0); allocs > 8 || bytes > 2048 {
		t.Fatalf("a reject-all decode of 256 records costs %.0f allocations and %.0f B, want ≤ 8 and ≤ 2 KB", allocs, bytes)
	}
	for _, n := range []int{256, 10, 4, 1} {
		k := (256 + n - 1) / n
		if allocs, _ := measure(n); allocs > float64(8+2*k) {
			t.Fatalf("admitting %d of 256 records costs %.0f allocations, want ≤ 8 + 2k = %d", k, allocs, 8+2*k)
		}
	}
}

// BenchmarkDecodeSegment decodes one 256-record segment whole, and through a
// predicate that admits one record in ten.
func BenchmarkDecodeSegment(b *testing.B) {
	enc := mustEncode(b, segment256())
	for _, c := range []struct {
		name string
		n    int
	}{{"full", 0}, {"one-in-ten", 10}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var keep func(*Record) bool
				if c.n > 0 {
					keep = everyNth(c.n)
				}
				if _, _, err := DecodeSegment(enc, keep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package pointer

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"switchpointer/internal/simtime"
)

// fuzzStructure builds the one geometry FuzzRestore restores into, in
// backend be, and plays a seeded mix of touches and epoch advances into it:
// 1000 hosts, so adaptive slots hold both sparse and promoted sets.
func fuzzStructure(tb testing.TB, be Backend, seed int64) *Structure {
	tb.Helper()
	cfg := Config{Alpha: 4 * simtime.Millisecond, K: 3, NumHosts: 1000, Backend: be}
	s, err := New(cfg, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	epoch := simtime.Epoch(0)
	s.Advance(epoch)
	for op := 0; op < 200; op++ {
		if rng.Intn(5) == 0 {
			epoch++
			s.Advance(epoch)
		} else {
			s.Touch(rng.Intn(cfg.NumHosts))
		}
	}
	return s
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzRestore feeds Restore arbitrary bytes, into a populated structure of
// the fixed geometry in each backend. It must never panic nor allocate out
// of proportion to the input: the constant covers the geometry's own slots
// and whatever the fuzzing engine allocates meanwhile, since TotalAlloc
// counts the whole process. A failed Restore must leave the structure's
// Snapshot unchanged; an accepted input must leave a structure whose
// Snapshot restores into a fresh twin as the same bytes.
// The committed corpus (testdata/fuzz) holds a valid snapshot of each
// backend, each also cut short and with one payload length overstated;
// every truncation of the adaptive one is seeded here. Three more seeds
// are snapshots of a retired sketch backend (payload kind 2, flag bit 4):
// both backends must refuse them.
func FuzzRestore(f *testing.F) {
	valid, _ := fuzzStructure(f, BackendAdaptive, 1).Snapshot()
	for n := 0; n < len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, be := range []Backend{BackendAdaptive, BackendDense} {
			s := fuzzStructure(t, be, 2)
			before, _ := s.Snapshot()
			var err error
			if grew := allocated(func() { err = s.Restore(data) }); grew > 1<<18+64*uint64(len(data)) {
				t.Fatalf("%s: restoring %d bytes allocated %d", be, len(data), grew)
			}
			if err != nil {
				if after, _ := s.Snapshot(); !bytes.Equal(after, before) {
					t.Fatalf("%s: a failed restore (%v) changed the structure", be, err)
				}
				continue
			}
			snap, _ := s.Snapshot()
			twin := fuzzStructure(t, be, 3)
			if err := twin.Restore(snap); err != nil {
				t.Fatalf("%s: the snapshot of an accepted restore does not restore: %v", be, err)
			}
			if again, _ := twin.Snapshot(); !bytes.Equal(again, snap) {
				t.Fatalf("%s: restore(snapshot(x)) snapshots differently", be)
			}
		}
	})
}

// FuzzDecodeSlots feeds DecodeSlots arbitrary bytes: no panic, allocation
// in proportion to the input (bounded as in FuzzRestore), and whatever
// decodes re-encodes and decodes to deep-equal slots. The committed corpus
// (testdata/fuzz) holds a valid three-slot list, an empty one, one cut
// short and one with a payload length overstated.
func FuzzDecodeSlots(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var slots []Slot
		var err error
		if grew := allocated(func() { slots, err = DecodeSlots(data) }); grew > 1<<18+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		again, err := DecodeSlots(EncodeSlots(slots))
		if err != nil || !reflect.DeepEqual(again, slots) {
			t.Fatalf("decode(encode(x)) != x: %v\n got %+v\nwant %+v", err, again, slots)
		}
	})
}

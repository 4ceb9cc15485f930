package pointer

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"switchpointer/internal/bitset"
	"switchpointer/internal/simtime"
)

// TestPropertyLevelKSupersetsLevel1 checks the defining containment invariant
// under random touch/advance interleavings: for any epoch window still
// retained at level 1, the covering slot at any higher level contains (as a
// superset) the union of the level-1 slots.
func TestPropertyLevelKSupersetsLevel1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: 64}, nil)
		if err != nil {
			return false
		}
		s.Advance(0)
		epoch := simtime.Epoch(0)
		for op := 0; op < 200; op++ {
			if rng.Intn(3) == 0 {
				epoch += simtime.Epoch(rng.Intn(3))
				s.Advance(epoch)
			} else {
				s.Touch(rng.Intn(64))
			}
		}
		// For each live level-1 slot, the level-2 slot covering its window
		// must be a superset.
		for _, l1 := range s.SlotsAt(1, simtime.EpochRange{Lo: 0, Hi: epoch}) {
			l2s := s.SlotsAt(2, l1.Epochs)
			if len(l2s) == 0 {
				continue // level-2 slot may have recycled in long runs
			}
			union := l2s[0].Bits.Clone()
			for _, o := range l2s[1:] {
				union.UnionWith(o.Bits)
			}
			ok := true
			l1.Bits.ForEach(func(i int) bool {
				if !union.Get(i) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyQueryNeverMissesRetainedTouches replays a random schedule of
// touches against a brute-force oracle: whenever Query reports Covered for a
// range, it must include every host touched in that range.
func TestPropertyQueryNeverMissesRetainedTouches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(Config{Alpha: 10 * simtime.Millisecond, K: 2, NumHosts: 32}, nil)
		if err != nil {
			return false
		}
		s.Advance(0)
		// oracle[e] = set of hosts touched during epoch e.
		oracle := map[simtime.Epoch]map[int]bool{}
		epoch := simtime.Epoch(0)
		for op := 0; op < 150; op++ {
			if rng.Intn(4) == 0 {
				epoch++
				s.Advance(epoch)
			} else {
				idx := rng.Intn(32)
				s.Touch(idx)
				if oracle[epoch] == nil {
					oracle[epoch] = map[int]bool{}
				}
				oracle[epoch][idx] = true
			}
		}
		// Random queries.
		for q := 0; q < 20; q++ {
			lo := simtime.Epoch(rng.Intn(int(epoch) + 1))
			hi := lo + simtime.Epoch(rng.Intn(5))
			bits, res := s.Query(simtime.EpochRange{Lo: lo, Hi: hi})
			if !res.Covered {
				continue
			}
			for e := lo; e <= hi && e <= epoch; e++ {
				for idx := range oracle[e] {
					if !bits.Get(idx) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyNoFalseHostsAtLevel1 checks the converse at the finest level:
// a level-1-covered query returns no host that was not touched in the range.
func TestPropertyNoFalseHostsAtLevel1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := New(Config{Alpha: 10 * simtime.Millisecond, K: 2, NumHosts: 32}, nil)
		if err != nil {
			return false
		}
		s.Advance(0)
		oracle := map[simtime.Epoch]map[int]bool{}
		epoch := simtime.Epoch(0)
		for op := 0; op < 100; op++ {
			if rng.Intn(4) == 0 {
				epoch++
				s.Advance(epoch)
			} else {
				idx := rng.Intn(32)
				s.Touch(idx)
				if oracle[epoch] == nil {
					oracle[epoch] = map[int]bool{}
				}
				oracle[epoch][idx] = true
			}
		}
		for q := 0; q < 20; q++ {
			lo := simtime.Epoch(rng.Intn(int(epoch) + 1))
			hi := lo + simtime.Epoch(rng.Intn(3))
			bits, res := s.Query(simtime.EpochRange{Lo: lo, Hi: hi})
			if res.Level != 1 || !res.Covered {
				continue
			}
			okAll := true
			bits.ForEach(func(idx int) bool {
				found := false
				for e := lo; e <= hi; e++ {
					if oracle[e][idx] {
						found = true
						break
					}
				}
				if !found {
					okAll = false
					return false
				}
				return true
			})
			if !okAll {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// driveLockstep applies one random touch/advance schedule to every structure
// in ss, returning the final epoch. All structures see identical inputs, so
// exact backends must end membership-identical.
func driveLockstep(rng *rand.Rand, ops, hosts int, ss ...*Structure) simtime.Epoch {
	for _, s := range ss {
		s.Advance(0)
	}
	epoch := simtime.Epoch(0)
	for op := 0; op < ops; op++ {
		if rng.Intn(4) == 0 {
			epoch += simtime.Epoch(rng.Intn(3))
			for _, s := range ss {
				s.Advance(epoch)
			}
		} else {
			idx := rng.Intn(hosts)
			for _, s := range ss {
				s.Touch(idx)
			}
		}
	}
	return epoch
}

// TestPropertyAdaptiveMatchesDense is the tentpole's exactness gate: under
// random touch/advance/seal/recycle schedules, the adaptive backend answers
// every pull byte-identically to the dense oracle — same bits, same level,
// same coverage.
func TestPropertyAdaptiveMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const hosts = 96
		cfgD := Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: hosts, Backend: BackendDense}
		cfgA := cfgD
		cfgA.Backend = BackendAdaptive
		d, err1 := New(cfgD, nil)
		a, err2 := New(cfgA, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		epoch := driveLockstep(rng, 250, hosts, d, a)
		for q := 0; q < 25; q++ {
			lo := simtime.Epoch(rng.Intn(int(epoch) + 1))
			r := simtime.EpochRange{Lo: lo, Hi: lo + simtime.Epoch(rng.Intn(6))}
			bd, rd := d.Query(r)
			ba, ra := a.Query(r)
			if !bd.Equal(ba) {
				return false
			}
			if rd.Level != ra.Level || rd.Covered != ra.Covered || rd.Slots != ra.Slots {
				return false
			}
			for h := 1; h <= 3; h++ {
				sd, sa := d.SlotsAt(h, r), a.SlotsAt(h, r)
				if len(sd) != len(sa) {
					return false
				}
				for i := range sd {
					if sd[i].Epochs != sa[i].Epochs || !sd[i].Bits.Equal(sa[i].Bits) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCrossBackendRestore: a snapshot restores into either backend
// (slots carry kind-tagged payloads that re-insert member-by-member),
// answering pulls identically afterward.
func TestSnapshotCrossBackendRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const hosts = 200
	mk := func(be Backend) *Structure {
		cfg := Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: hosts, Backend: be}
		return mustNew(t, cfg, nil)
	}
	for _, src := range []Backend{BackendDense, BackendAdaptive} {
		for _, dst := range []Backend{BackendDense, BackendAdaptive} {
			s := mk(src)
			s.Advance(0)
			epoch := simtime.Epoch(0)
			for op := 0; op < 300; op++ {
				if rng.Intn(4) == 0 {
					epoch += simtime.Epoch(rng.Intn(2))
					s.Advance(epoch)
				} else {
					s.Touch(rng.Intn(hosts))
				}
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			twin := mk(dst)
			if err := twin.Restore(snap); err != nil {
				t.Fatalf("%s snapshot into %s: %v", src, dst, err)
			}
			r := simtime.EpochRange{Lo: 0, Hi: epoch}
			b1, r1 := s.Query(r)
			b2, r2 := twin.Query(r)
			if !b1.Equal(b2) || r1 != r2 {
				t.Fatalf("%s→%s restore diverged: %+v vs %+v", src, dst, r1, r2)
			}
			if twin.Touches() != s.Touches() || twin.CurrentEpoch() != s.CurrentEpoch() {
				t.Fatalf("%s→%s counters diverged", src, dst)
			}
		}
	}
}

// TestLegacyDenseSnapshotRestoresIntoEveryBackend hand-builds the oldest
// snapshot layout — every touched slot a full dense bitmap, whatever set the
// writer held — from an adaptive structure (whose own snapshot would carry
// sparse payloads) and restores it into both backends.
func TestLegacyDenseSnapshotRestoresIntoEveryBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const hosts = 300
	src := mustNew(t, Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: hosts, Backend: BackendAdaptive}, nil)
	src.Advance(0)
	epoch := simtime.Epoch(0)
	for op := 0; op < 250; op++ {
		if rng.Intn(4) == 0 {
			epoch += simtime.Epoch(rng.Intn(2))
			src.Advance(epoch)
		} else {
			src.Touch(rng.Intn(hosts))
		}
	}
	b := appendHeader(nil, src.cfg.Alpha, src.cfg.K, src.cfg.NumHosts)
	b = append(binary.AppendVarint(b, int64(src.epoch)), bit(src.started))
	for _, v := range []uint64{src.touches, src.pushes, src.pushedBytes} {
		b = binary.AppendUvarint(b, v)
	}
	for _, c := range src.cur {
		b = binary.AppendUvarint(b, uint64(c))
	}
	dense := 0
	for h, ring := range src.levels {
		for _, slot := range ring {
			var payload []byte
			if slot.set != nil {
				bits, err := src.materialize(slot).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				payload = bits
				dense++
			}
			flags := bit(slot.sealed)*flagSealed | bit(slot.used)*flagUsed
			b = appendSlot(b, h+1, slot.epochs, flags, slotKindDense, payload)
		}
	}
	if dense == 0 {
		t.Fatalf("no touched slot to encode — test is vacuous")
	}

	r := simtime.EpochRange{Lo: 0, Hi: epoch}
	want, wantRes := src.Query(r)
	for _, be := range []Backend{BackendDense, BackendAdaptive} {
		twin := mustNew(t, Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: hosts, Backend: be}, nil)
		if err := twin.Restore(b); err != nil {
			t.Fatalf("legacy snapshot into %s: %v", be, err)
		}
		if twin.Touches() != src.Touches() || twin.CurrentEpoch() != src.CurrentEpoch() {
			t.Fatalf("legacy→%s counters diverged", be)
		}
		got, gotRes := twin.Query(r)
		if !got.Equal(want) || gotRes != wantRes {
			t.Fatalf("legacy→%s restore diverged: %+v vs %+v", be, gotRes, wantRes)
		}
	}
}

// TestRestoreRefusesRetiredSlotFormats hand-builds one-slot snapshots in the
// formats of the retired sketch backend — a kind-2 payload, and a dense
// payload under flag bit 4 — and restores each into a populated structure:
// each is refused with an error naming the slot, and the structure's
// Snapshot is unchanged. The same record with flags 1|2 and kind 0 restores,
// so the refusal is the retired field's alone. DecodeSlots refuses flag bit
// 4 the same way.
func TestRestoreRefusesRetiredSlotFormats(t *testing.T) {
	cfg := Config{Alpha: simtime.Millisecond, K: 1, NumHosts: 64}
	members := bitset.New(cfg.NumHosts)
	members.Set(9)
	dense, _ := members.MarshalBinary()
	// A sketch payload: 8 bytes m, 8 bytes k, then the m-bit filter.
	filter := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 64), 2)
	filter = append(filter, dense...)
	snapshot := func(flags, kind byte, payload []byte) []byte {
		b := appendHeader(nil, cfg.Alpha, cfg.K, cfg.NumHosts)
		b = append(binary.AppendVarint(b, 0), 1) // epoch 0, started
		b = append(b, 1, 0, 0, 0)                // 1 touch, no pushes, ring position 0
		return appendSlot(b, 1, simtime.EpochRange{}, flags, kind, payload)
	}
	for _, tc := range []struct {
		name        string
		flags, kind byte
		payload     []byte
	}{
		{"kind 2", flagSealed | flagUsed, 2, filter},
		{"flag bit 4", flagSealed | flagUsed | 4, slotKindDense, dense},
	} {
		s := mustNew(t, cfg, nil)
		s.Advance(0)
		s.Touch(3)
		before, _ := s.Snapshot()
		err := s.Restore(snapshot(tc.flags, tc.kind, tc.payload))
		if err == nil || !strings.Contains(err.Error(), "level 1 slot 0") {
			t.Fatalf("%s: Restore = %v, want a refusal naming level 1 slot 0", tc.name, err)
		}
		if after, _ := s.Snapshot(); !bytes.Equal(after, before) {
			t.Fatalf("%s: the refused restore changed the structure", tc.name)
		}
	}
	s := mustNew(t, cfg, nil)
	if err := s.Restore(snapshot(flagSealed|flagUsed, slotKindDense, dense)); err != nil {
		t.Fatalf("the same record with current flags and kind: %v", err)
	}
	if got, _ := s.Query(simtime.EpochRange{}); !got.Equal(members) {
		t.Fatalf("restored members = %v, want [9]", got.Indices())
	}

	list := binary.AppendUvarint(appendHeader(nil, 0, 0, cfg.NumHosts), 1)
	list = appendSlot(list, 1, simtime.EpochRange{}, flagSealed|4, slotKindDense, dense)
	if _, err := DecodeSlots(list); err == nil || !strings.Contains(err.Error(), "slot 0") {
		t.Fatalf("DecodeSlots with flag bit 4 = %v, want a refusal naming slot 0", err)
	}
}

func BenchmarkTouchK3(b *testing.B) {
	s, err := New(Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: 100000}, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.Advance(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(i % 100000)
	}
}

func BenchmarkTouchK5(b *testing.B) {
	s, err := New(Config{Alpha: 10 * simtime.Millisecond, K: 5, NumHosts: 100000}, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.Advance(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(i % 100000)
	}
}

func BenchmarkAdvanceEpoch(b *testing.B) {
	s, err := New(Config{Alpha: 10 * simtime.Millisecond, K: 3, NumHosts: 100000}, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.Advance(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance(simtime.Epoch(i + 1))
	}
}

package pointer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"switchpointer/internal/bitset"
	"switchpointer/internal/simtime"
	"switchpointer/internal/varint"
)

// snapVersion is the snapshot format version this build writes and reads.
const snapVersion = 1

// Slot record flags.
const (
	flagSealed byte = 1 << iota
	flagUsed
)

// snapMagic opens every snapshot and slot list (see the package comment).
var snapMagic = [3]byte{0x8A, 'P', 'T'}

// bit is 1 for true and 0 for false.
func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendHeader(b []byte, alpha simtime.Time, k, n int) []byte {
	b = append(b, snapMagic[0], snapMagic[1], snapMagic[2], snapVersion)
	b = binary.AppendVarint(b, int64(alpha))
	b = binary.AppendUvarint(b, uint64(k))
	return binary.AppendUvarint(b, uint64(n))
}

func appendSlot(b []byte, level int, epochs simtime.EpochRange, flags, kind byte, payload []byte) []byte {
	b = append(b, byte(level))
	b = binary.AppendVarint(b, int64(epochs.Lo))
	b = binary.AppendVarint(b, int64(epochs.Hi))
	b = append(b, flags, kind)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// openSnapshot checks the magic and version and reads the geometry header,
// returning the reader past it. Every snapshot and slot list is read by
// internal/varint's Reader, the one reader under every binary format here:
// after the first short or out-of-range read every read returns zero, and
// Bad is checked once per record.
func openSnapshot(b []byte) (r varint.Reader, alpha simtime.Time, k, n int, err error) {
	if len(b) < len(snapMagic)+1 || [3]byte(b) != snapMagic || b[3] != snapVersion {
		return r, 0, 0, 0, fmt.Errorf("not a version %d snapshot: short or foreign header", snapVersion)
	}
	r = varint.NewReader(b[4:])
	alpha = simtime.Time(r.Varint("alpha", math.MaxUint64))
	k, n = int(r.Bounded("levels", math.MaxInt32)), int(r.Bounded("hosts", math.MaxInt32))
	if r.Bad() {
		return r, 0, 0, 0, errors.New("corrupt snapshot: truncated header")
	}
	return r, alpha, k, n, nil
}

// readSlot reads one slot record, its payload bounded by the bytes left; the
// payload aliases the input. ok is false when a read failed or a flag is
// unknown.
func readSlot(r *varint.Reader) (level int, epochs simtime.EpochRange, flags, kind byte, payload []byte, ok bool) {
	level = int(r.Byte("level"))
	epochs = simtime.EpochRange{Lo: simtime.Epoch(r.Varint("lo", math.MaxUint64)), Hi: simtime.Epoch(r.Varint("hi", math.MaxUint64))}
	flags, kind = r.Byte("flags"), r.Byte("kind")
	n := r.Bounded("payload length", math.MaxInt32)
	if r.Bad() || n > uint64(r.Len()) || flags > flagSealed|flagUsed {
		return level, epochs, flags, kind, nil, false
	}
	rest := r.Rest()
	*r = varint.NewReader(rest[n:])
	return level, epochs, flags, kind, rest[:n:n], true
}

// Snapshot serializes the structure's complete live state: every slot of
// every level, the ring positions, the current epoch, and the touch/push
// accounting. It never returns an error.
func (s *Structure) Snapshot() ([]byte, error) {
	b := appendHeader(nil, s.cfg.Alpha, s.cfg.K, s.cfg.NumHosts)
	b = append(binary.AppendVarint(b, int64(s.epoch)), bit(s.started))
	for _, v := range []uint64{s.touches, s.pushes, s.pushedBytes} {
		b = binary.AppendUvarint(b, v)
	}
	for _, c := range s.cur {
		b = binary.AppendUvarint(b, uint64(c))
	}
	for h, ring := range s.levels {
		for _, slot := range ring {
			flags := bit(slot.sealed)*flagSealed | bit(slot.used)*flagUsed
			kind, payload := slotKindDense, []byte(nil)
			if slot.set != nil {
				kind, payload = slot.set.encode()
			}
			b = appendSlot(b, h+1, slot.epochs, flags, kind, payload)
		}
	}
	return b, nil
}

// Restore replaces the structure's live state with a Snapshot of a
// structure of identical geometry (same Alpha, K, NumHosts). The BACKEND
// need not match: slot payloads (dense or sparse) restore into either
// backend by re-inserting their members; a slot with an unknown flag or
// payload kind is refused. Every record decodes before any slot changes, so
// a failed Restore leaves the structure as it was. Epochs continue from the
// restored epoch.
func (s *Structure) Restore(b []byte) error {
	r, alpha, k, n, err := openSnapshot(b)
	if err != nil {
		return fmt.Errorf("pointer: restore: %w", err)
	}
	if alpha != s.cfg.Alpha || k != s.cfg.K || n != s.cfg.NumHosts {
		return fmt.Errorf("pointer: restore: geometry mismatch (snapshot α=%v k=%d n=%d, structure α=%v k=%d n=%d)",
			alpha, k, n, s.cfg.Alpha, s.cfg.K, s.cfg.NumHosts)
	}
	epoch, started := simtime.Epoch(r.Varint("epoch", math.MaxUint64)), r.Byte("started")
	touches, pushes, pushedBytes := r.Uvarint(), r.Uvarint(), r.Uvarint()
	cur := make([]int, len(s.cur))
	for h := range cur {
		cur[h] = int(r.Bounded("ring position", uint64(len(s.levels[h])-1)))
	}
	if r.Bad() || started > 1 {
		return errors.New("pointer: restore: corrupt snapshot state")
	}
	slots := make([]liveSlot, 0, s.totalSlots())
	for h, ring := range s.levels {
		for i := range ring {
			level, epochs, flags, kind, payload, ok := readSlot(&r)
			if !ok || level != h+1 {
				return fmt.Errorf("pointer: restore: level %d slot %d: corrupt record", h+1, i)
			}
			set, err := s.restorePayload(kind, payload)
			if err != nil {
				return fmt.Errorf("pointer: restore: level %d slot %d: %w", h+1, i, err)
			}
			slots = append(slots, liveSlot{level: level, epochs: epochs, set: set,
				sealed: flags&flagSealed != 0, used: flags&flagUsed != 0})
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("pointer: restore: %d bytes past the last slot", r.Len())
	}
	for _, ring := range s.levels {
		for _, slot := range ring {
			*slot, slots = slots[0], slots[1:]
		}
	}
	copy(s.cur, cur)
	s.epoch, s.started = epoch, started == 1
	s.touches, s.pushes, s.pushedBytes = touches, pushes, pushedBytes
	return nil
}

// EncodeSlots serializes a slot list (typically a switch agent's control
// store — the pushed top-level history) for the state-sync wire. Slots are
// materialized bitmaps, so every payload is dense; the list's width is the
// first slot's, and DecodeSlots refuses a slot of another.
func EncodeSlots(slots []Slot) []byte {
	n := 0
	if len(slots) > 0 {
		n = slots[0].Bits.Len()
	}
	b := binary.AppendUvarint(appendHeader(nil, 0, 0, n), uint64(len(slots)))
	for _, sl := range slots {
		payload, _ := sl.Bits.MarshalBinary() // never errors
		b = appendSlot(b, sl.Level, sl.Epochs, bit(sl.Sealed)*flagSealed, slotKindDense, payload)
	}
	return b
}

// DecodeSlots restores a slot list written by EncodeSlots.
func DecodeSlots(b []byte) ([]Slot, error) {
	r, alpha, k, n, err := openSnapshot(b)
	count := int(r.Bounded("slots", uint64(r.Len()/6))) // a slot record is 6 bytes or more
	if err == nil && (alpha != 0 || k != 0 || r.Bad()) {
		err = errors.New("corrupt slot list header")
	}
	if err != nil {
		return nil, fmt.Errorf("pointer: decode slots: %w", err)
	}
	slots := make([]Slot, count)
	for i := range slots {
		level, epochs, flags, kind, payload, ok := readSlot(&r)
		var bits bitset.Set
		if !ok || kind != slotKindDense || bits.UnmarshalBinary(payload) != nil || bits.Len() != n {
			return nil, fmt.Errorf("pointer: decode slots: slot %d: corrupt record", i)
		}
		slots[i] = Slot{Level: level, Epochs: epochs, Bits: &bits, Sealed: flags&flagSealed != 0}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("pointer: decode slots: %d bytes past the last slot", r.Len())
	}
	return slots, nil
}

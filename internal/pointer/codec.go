package pointer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"switchpointer/internal/bitset"
	"switchpointer/internal/simtime"
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

// snapReader is a bounds-checked cursor with a sticky failure, like
// flowrec's decoder: after the first short or out-of-range read every read
// returns zero, and bad is checked once per record.
type snapReader struct {
	b   []byte
	bad bool
}

// open checks the magic and version and reads the geometry header.
func (r *snapReader) open(b []byte) (alpha simtime.Time, k, n int, err error) {
	if len(b) < len(snapMagic)+1 || [3]byte(b) != snapMagic || b[3] != snapVersion {
		return 0, 0, 0, fmt.Errorf("not a version %d snapshot: short or foreign header", snapVersion)
	}
	r.b = b[4:]
	alpha = simtime.Time(r.varint())
	k, n = int(r.uvarint(math.MaxInt32)), int(r.uvarint(math.MaxInt32))
	if r.bad {
		return 0, 0, 0, errors.New("corrupt snapshot: truncated header")
	}
	return alpha, k, n, nil
}

func (r *snapReader) u8() (v byte) {
	if len(r.b) == 0 {
		r.bad = true
	} else {
		v, r.b = r.b[0], r.b[1:]
	}
	return v
}

func (r *snapReader) uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > limit {
		r.b, r.bad = nil, true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *snapReader) varint() int64 {
	u := r.uvarint(math.MaxUint64)
	return int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint
}

// slot reads one slot record, its payload bounded by the bytes left; the
// payload aliases the input.
func (r *snapReader) slot() (level int, epochs simtime.EpochRange, flags, kind byte, payload []byte) {
	level = int(r.u8())
	epochs = simtime.EpochRange{Lo: simtime.Epoch(r.varint()), Hi: simtime.Epoch(r.varint())}
	flags, kind = r.u8(), r.u8()
	if n := r.uvarint(math.MaxInt32); n <= uint64(len(r.b)) && flags <= flagSealed|flagUsed {
		payload, r.b = r.b[:n:n], r.b[n:]
	} else {
		r.b, r.bad = nil, true
	}
	return level, epochs, flags, kind, payload
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
	var r snapReader
	alpha, k, n, err := r.open(b)
	if err != nil {
		return fmt.Errorf("pointer: restore: %w", err)
	}
	if alpha != s.cfg.Alpha || k != s.cfg.K || n != s.cfg.NumHosts {
		return fmt.Errorf("pointer: restore: geometry mismatch (snapshot α=%v k=%d n=%d, structure α=%v k=%d n=%d)",
			alpha, k, n, s.cfg.Alpha, s.cfg.K, s.cfg.NumHosts)
	}
	epoch, started := simtime.Epoch(r.varint()), r.u8()
	touches, pushes, pushedBytes := r.uvarint(math.MaxUint64), r.uvarint(math.MaxUint64), r.uvarint(math.MaxUint64)
	cur := make([]int, len(s.cur))
	for h := range cur {
		cur[h] = int(r.uvarint(uint64(len(s.levels[h]) - 1)))
	}
	if r.bad || started > 1 {
		return errors.New("pointer: restore: corrupt snapshot state")
	}
	slots := make([]liveSlot, 0, s.totalSlots())
	for h, ring := range s.levels {
		for i := range ring {
			level, epochs, flags, kind, payload := r.slot()
			if r.bad || level != h+1 {
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
	if len(r.b) != 0 {
		return fmt.Errorf("pointer: restore: %d bytes past the last slot", len(r.b))
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
	var r snapReader
	alpha, k, n, err := r.open(b)
	count := int(r.uvarint(uint64(len(r.b) / 6))) // a slot record is 6 bytes or more
	if err == nil && (alpha != 0 || k != 0 || r.bad) {
		err = errors.New("corrupt slot list header")
	}
	if err != nil {
		return nil, fmt.Errorf("pointer: decode slots: %w", err)
	}
	slots := make([]Slot, count)
	for i := range slots {
		level, epochs, flags, kind, payload := r.slot()
		var bits bitset.Set
		if r.bad || kind != slotKindDense || bits.UnmarshalBinary(payload) != nil || bits.Len() != n {
			return nil, fmt.Errorf("pointer: decode slots: slot %d: corrupt record", i)
		}
		slots[i] = Slot{Level: level, Epochs: epochs, Bits: &bits, Sealed: flags&flagSealed != 0}
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("pointer: decode slots: %d bytes past the last slot", len(r.b))
	}
	return slots, nil
}

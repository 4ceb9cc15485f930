// Package pointer implements SwitchPointer's hierarchical pointer data
// structure (§4.1.1): the switch-resident directory that records, per time
// window, *which end-hosts* the switch forwarded packets to — not the
// telemetry itself, just pointers to where the telemetry lives.
//
// Geometry, for epoch size α (in ms) and k levels:
//
//   - level h (1 ≤ h < k) holds α slots; each slot is a pointer set over
//     end-hosts covering α^(h−1) consecutive epochs (α^h ms). The α slots at
//     level 1 give per-epoch resolution over the last α epochs.
//   - level k (top) holds a single slot covering α^(k−1) epochs (α^k ms);
//     when it seals it is pushed to the control plane for persistent storage.
//
// For the dense backend, total switch memory is (α·(k−1)+1)·S bits for
// pointer sets of S bits, and the data-plane→control-plane bandwidth is
// S·10³/α^k bps — the tradeoff curves of Fig 10. A slot at level h is
// recycled (α−1)·α^h ms after it seals (Fig 11).
//
// What a slot stores is a Backend: the dense bitmap above (the paper's
// layout and the reference) or the adaptive container whose cost follows
// occupancy. Both are exact. Slots allocate lazily — an idle switch holds
// ring bookkeeping, not bitmaps.
//
// The data plane performs ONE minimal-perfect-hash operation per packet
// (done by the caller) and then sets the same bit index in the current slot
// of every level — k parallel bit sets, independent of k in hash work.
//
// # Snapshot format
//
// Structure.Snapshot and EncodeSlots (a switch's pushed control-store
// history) write one binary format (codec.go): a header, then slot records.
// uvarint and varint (zigzag) are written by encoding/binary and read by
// internal/varint's Reader.
//
//	header     0x8A 'P' 'T'   magic — a flowrec segment opens 0x89 'S' 'P'
//	           u8             version (1)
//	           varint         Alpha in ns (0 in a slot list)
//	           uvarint ×2     K (0 in a slot list), NumHosts
//	structure  varint         current epoch
//	           u8             1 once started, else 0
//	           uvarint ×3     touches, pushes, pushed bytes
//	           uvarint ×K     ring position per level
//	           slot ×(α·(K−1)+1), level by level in ring order
//	slot list  uvarint        count, then that many slots
//	slot       u8             level
//	           varint ×2      Epochs.Lo, Epochs.Hi
//	           u8             flags: 1 sealed, 2 used
//	           u8             payload kind: 0 dense, 1 sparse
//	           uvarint        payload length (0 = an untouched slot), then
//	                          the payload: slotSet.encode()'s in a structure,
//	                          the dense bitmap in a slot list
//
// Decoders bound every count and length by the bytes left before sizing
// anything and reject trailing bytes, any other flag bit and any other
// payload kind; Restore decodes before it changes.
package pointer

import (
	"fmt"

	"switchpointer/internal/bitset"
	"switchpointer/internal/simtime"
)

// Config parameterizes one switch's pointer structure.
type Config struct {
	// Alpha is the epoch duration (the paper's α, typically 10–20 ms; the
	// commodity OpenFlow floor is ~15 ms, INT mode can go lower).
	Alpha simtime.Time
	// K is the number of hierarchy levels (the paper evaluates 1–5).
	K int
	// NumHosts is the maximum number of end-hosts (pointer-set universe,
	// the paper's n: 100 K or 1 M in §6.1).
	NumHosts int

	// Backend selects the slot-set implementation. The zero value is
	// BackendAdaptive; BackendDense is the paper's layout and the reference.
	Backend Backend
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Alpha <= 0 {
		return fmt.Errorf("pointer: Alpha must be positive, got %v", c.Alpha)
	}
	if c.K < 1 {
		return fmt.Errorf("pointer: K must be ≥ 1, got %d", c.K)
	}
	if c.K > 9 {
		return fmt.Errorf("pointer: K=%d would overflow epoch arithmetic", c.K)
	}
	if c.NumHosts < 1 {
		return fmt.Errorf("pointer: NumHosts must be ≥ 1, got %d", c.NumHosts)
	}
	switch c.Backend {
	case BackendAdaptive, BackendDense:
	default:
		return fmt.Errorf("pointer: unknown backend %d", int(c.Backend))
	}
	return nil
}

// AlphaScalar returns α as the paper's dimensionless scalar: the number of
// slots per level and the per-level branching factor. It equals the epoch
// duration in milliseconds for millisecond-granular configs and is derived
// from the ratio Alpha/1ms, with a floor of 2 to keep the hierarchy
// meaningful for sub-millisecond epochs.
func (c Config) AlphaScalar() int {
	a := int(c.Alpha / simtime.Millisecond)
	if a < 2 {
		a = 2
	}
	return a
}

// Slot is one materialized pointer set: a bitmap over end-host indices
// covering a window of epochs. It is the exported snapshot form used for
// pulls, pushes, and the control store; the live structure holds backend
// containers, not Slots.
type Slot struct {
	Level  int                // 1-based; K is the top
	Epochs simtime.EpochRange // aligned window this slot covers
	Bits   *bitset.Set
	Sealed bool // true once its window has fully elapsed
}

// liveSlot is the in-structure slot: ring bookkeeping plus a lazily
// allocated backend container (nil until the first touch).
type liveSlot struct {
	level  int
	epochs simtime.EpochRange
	sealed bool
	used   bool // window assigned (internal ring bookkeeping)
	set    slotSet
}

// PushFunc receives sealed top-level slots for persistent storage. The slot
// is a snapshot owned by the callee.
type PushFunc func(s Slot)

// Structure is the per-switch hierarchical pointer directory. It is not
// safe for concurrent use: in the simulator all access is serialized by the
// event engine, mirroring a real data plane's per-pipeline state.
type Structure struct {
	cfg   Config
	alpha int // slots per level / branching factor

	// levels[h-1] is the ring of slots at level h; top level has 1 slot.
	levels [][]*liveSlot
	cur    []int // current slot index per level

	epoch       simtime.Epoch // current epoch (last Advance)
	started     bool
	touches     uint64
	pushes      uint64
	pushedBytes uint64
	onPush      PushFunc

	// spanEpochs[h-1] = α^(h-1): epochs covered by one slot at level h.
	spanEpochs []int64
}

// New builds the structure. onPush may be nil. Slot containers are NOT
// allocated here: each slot's backend is built on its first Touch, so a
// structure over a million-host universe costs ring bookkeeping until
// traffic arrives.
func New(cfg Config, onPush PushFunc) (*Structure, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Structure{
		cfg:    cfg,
		alpha:  cfg.AlphaScalar(),
		onPush: onPush,
	}
	s.levels = make([][]*liveSlot, cfg.K)
	s.cur = make([]int, cfg.K)
	s.spanEpochs = make([]int64, cfg.K)
	span := int64(1)
	for h := 1; h <= cfg.K; h++ {
		nSlots := s.alpha
		if h == cfg.K {
			nSlots = 1
		}
		ring := make([]*liveSlot, nSlots)
		for i := range ring {
			ring[i] = &liveSlot{level: h}
		}
		s.levels[h-1] = ring
		s.spanEpochs[h-1] = span
		span *= int64(s.alpha)
	}
	return s, nil
}

// Config returns the structure's configuration.
func (s *Structure) Config() Config { return s.cfg }

// Alpha returns the branching factor / slots per level.
func (s *Structure) Alpha() int { return s.alpha }

// CurrentEpoch returns the epoch of the last Advance call.
func (s *Structure) CurrentEpoch() simtime.Epoch { return s.epoch }

// Touches returns the number of data-plane updates recorded.
func (s *Structure) Touches() uint64 { return s.touches }

// Pushes returns how many top-level slots have been pushed, and the total
// encoded bytes shipped to the control plane (backend-honest: occupancy-
// proportional for adaptive slots, full width for dense).
func (s *Structure) Pushes() (count, bytes uint64) { return s.pushes, s.pushedBytes }

// slotWindow returns the aligned epoch window of the slot containing epoch e
// at level h.
func (s *Structure) slotWindow(h int, e simtime.Epoch) simtime.EpochRange {
	span := s.spanEpochs[h-1]
	lo := (int64(e) / span) * span
	if int64(e) < 0 && int64(e)%span != 0 {
		lo -= span
	}
	return simtime.EpochRange{Lo: simtime.Epoch(lo), Hi: simtime.Epoch(lo + span - 1)}
}

// Advance moves the structure to epoch e, sealing and recycling slots whose
// windows have elapsed. The control-plane agent calls this once per epoch
// boundary (§4.1.2: "an agent at the switch control plane updates a register
// with the memory address of the next pointer ... and resets its content").
// Epochs must advance monotonically.
func (s *Structure) Advance(e simtime.Epoch) {
	if s.started && e < s.epoch {
		panic(fmt.Sprintf("pointer: Advance moving backwards (%d < %d)", e, s.epoch))
	}
	if !s.started {
		s.started = true
		s.epoch = e
		for h := 1; h <= s.cfg.K; h++ {
			cur := s.currentSlot(h)
			cur.epochs = s.slotWindow(h, e)
			cur.used = true
		}
		return
	}
	for ; s.epoch < e; s.epoch++ {
		next := s.epoch + 1
		for h := 1; h <= s.cfg.K; h++ {
			cur := s.currentSlot(h)
			if next <= cur.epochs.Hi {
				continue // window still open
			}
			cur.sealed = true
			if h == s.cfg.K {
				s.push(cur)
			}
			// Rotate to the next slot in the ring and recycle it. An
			// allocated container is cleared in place (O(occupancy) for the
			// adaptive backend); an untouched slot stays unallocated.
			ring := s.levels[h-1]
			s.cur[h-1] = (s.cur[h-1] + 1) % len(ring)
			slot := ring[s.cur[h-1]]
			if slot.set != nil {
				slot.set.reset()
			}
			slot.sealed = false
			slot.epochs = s.slotWindow(h, next)
			slot.used = true
		}
	}
}

func (s *Structure) currentSlot(h int) *liveSlot { return s.levels[h-1][s.cur[h-1]] }

// materialize expands a live slot into the exported bitmap form: the
// touched set.
func (s *Structure) materialize(sl *liveSlot) *bitset.Set {
	out := bitset.New(s.cfg.NumHosts)
	if sl.set != nil {
		sl.set.addTo(out)
	}
	return out
}

// slotEncodedBytes is the wire size of one slot: the push/pull unit of the
// bandwidth accounting. An untouched slot still ships its backend's empty
// encoding — full width for dense (the paper's fixed S-bit push), a bare
// header for adaptive.
func (s *Structure) slotEncodedBytes(sl *liveSlot) int {
	switch {
	case sl.set != nil:
		return sl.set.encodedBytes()
	case s.cfg.Backend == BackendDense:
		return 8 + s.denseSlotBytes()
	default:
		return 16 // empty sparse header
	}
}

// denseSlotBytes is the word-padded width of one dense pointer set.
func (s *Structure) denseSlotBytes() int { return (s.cfg.NumHosts + 63) / 64 * 8 }

func (s *Structure) push(slot *liveSlot) {
	s.pushes++
	s.pushedBytes += uint64(s.slotEncodedBytes(slot))
	if s.onPush != nil {
		s.onPush(Slot{
			Level:  slot.level,
			Epochs: slot.epochs,
			Bits:   s.materialize(slot),
			Sealed: true,
		})
	}
}

// Touch records a packet to the end-host with MPH index idx: one bit set in
// the current slot of every level. The caller has already done the single
// hash operation; this is the k-way parallel bit write of §4.1.2. A slot's
// backend container is allocated on its first touch.
func (s *Structure) Touch(idx int) {
	if !s.started {
		panic("pointer: Touch before first Advance")
	}
	s.touches++
	for h := 1; h <= s.cfg.K; h++ {
		slot := s.currentSlot(h)
		if slot.set == nil {
			slot.set = s.newSet()
		}
		slot.set.add(idx)
	}
}

// QueryResult reports how a pointer query was satisfied.
type QueryResult struct {
	// Level the slots were taken from (0 if nothing was available).
	Level int
	// Slots actually consulted.
	Slots int
	// Covered is true when the union of consulted slot windows contains the
	// whole requested range. When false the caller should fall back to the
	// control plane's pushed history.
	Covered bool
	// SlotsCopiedBytes models the pull-bandwidth cost of the query: the
	// encoded size of every consulted slot.
	SlotsCopiedBytes int
}

// Query returns the union of end-host bits for all epochs in r, using the
// finest level whose live slots cover the range (the pull model of §4.1.1:
// recent epochs from level 1, older windows from coarser levels).
func (s *Structure) Query(r simtime.EpochRange) (*bitset.Set, QueryResult) {
	out := bitset.New(s.cfg.NumHosts)
	if r.Len() == 0 {
		return out, QueryResult{Covered: true}
	}
	var best QueryResult
	for h := 1; h <= s.cfg.K; h++ {
		hits := 0
		bytes := 0
		coveredLo := simtime.Epoch(1 << 62)
		coveredHi := simtime.Epoch(-(1 << 62))
		tmp := bitset.New(s.cfg.NumHosts)
		for _, slot := range s.levels[h-1] {
			if !slot.used || !slot.epochs.Overlaps(r) {
				continue
			}
			hits++
			bytes += s.slotEncodedBytes(slot)
			if slot.set != nil {
				slot.set.addTo(tmp)
			}
			if slot.epochs.Lo < coveredLo {
				coveredLo = slot.epochs.Lo
			}
			if slot.epochs.Hi > coveredHi {
				coveredHi = slot.epochs.Hi
			}
		}
		if hits == 0 {
			continue
		}
		// Live slots at one level are contiguous in time, so [lo,hi]
		// coverage implies full coverage of the overlap.
		covered := coveredLo <= r.Lo && coveredHi >= r.Hi
		res := QueryResult{Level: h, Slots: hits, Covered: covered, SlotsCopiedBytes: bytes}
		if covered {
			out.UnionWith(tmp)
			return out, res
		}
		// Remember the coarsest partial answer; coarser levels retain more
		// history, so keep ascending.
		best = res
		out.Reset()
		out.UnionWith(tmp)
	}
	return out, best
}

// SlotsAt returns snapshots of the live slots at level h that overlap r, in
// ascending window order. The analyzer's pull API uses this to fetch "the
// five most recent sets of pointers from level 1"-style requests.
func (s *Structure) SlotsAt(h int, r simtime.EpochRange) []Slot {
	if h < 1 || h > s.cfg.K {
		return nil
	}
	var out []Slot
	for _, slot := range s.levels[h-1] {
		if !slot.used || !slot.epochs.Overlaps(r) {
			continue
		}
		out = append(out, Slot{
			Level:  h,
			Epochs: slot.epochs,
			Bits:   s.materialize(slot),
			Sealed: slot.sealed,
		})
	}
	// Ring order is rotation order; sort by window.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Epochs.Lo < out[j-1].Epochs.Lo; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// MemoryBytes returns the structure's modeled (provisioned) pointer-set
// memory — the Fig 10(a) quantity (the MPH table is accounted separately by
// the datapath that owns it):
//
//   - dense: (α·(k−1)+1)·S/8 bytes — the paper's fixed layout, independent
//     of lazy allocation, so the Fig 10 curves are stable.
//   - adaptive: the resident footprint (its provisioning follows occupancy).
//
// Use ResidentBytes for the actually-allocated heap size of either backend.
func (s *Structure) MemoryBytes() int {
	if s.cfg.Backend == BackendDense {
		return s.totalSlots() * s.denseSlotBytes()
	}
	return s.ResidentBytes()
}

// ResidentBytes returns the heap actually allocated by slot containers —
// zero for a freshly built structure, occupancy-proportional for adaptive,
// bounded by the modeled geometry for dense.
func (s *Structure) ResidentBytes() int {
	total := 0
	for _, ring := range s.levels {
		for _, slot := range ring {
			if slot.set != nil {
				total += slot.set.memoryBytes()
			}
		}
	}
	return total
}

func (s *Structure) totalSlots() int {
	total := 0
	for _, ring := range s.levels {
		total += len(ring)
	}
	return total
}

// PushBandwidthBps returns the modeled steady-state data-plane→control-plane
// bandwidth: one top slot every α^k ms, provisioned at S word-padded bits
// (S·10³/α^k bps, Fig 10(b) — adaptive's actual pushes are smaller, see
// Pushes).
func (s *Structure) PushBandwidthBps() float64 {
	sBits := float64(s.denseSlotBytes() * 8)
	periodMs := float64(s.spanEpochs[s.cfg.K-1]) * s.cfg.Alpha.Milliseconds()
	return sBits * 1000.0 / periodMs
}

// RecyclingPeriod returns how long after a level-h slot seals its memory is
// reused: (α−1)·α^h ms (Fig 11; the top level has no ring and recycles
// immediately, reported as 0).
func (s *Structure) RecyclingPeriod(h int) simtime.Time {
	if h < 1 || h >= s.cfg.K {
		return 0
	}
	// (α−1) slots of α^(h−1) epochs each elapse before reuse.
	return simtime.Time(int64(s.alpha-1)*s.spanEpochs[h-1]) * s.cfg.Alpha
}

// TheoreticalMemoryBits returns the paper's closed-form memory formula
// α(k−1)·S + S for S-bit pointer sets, used by the Fig 10(a) harness to
// cross-check the measured structure.
func TheoreticalMemoryBits(alpha, k, sBits int) int64 {
	return int64(alpha)*int64(k-1)*int64(sBits) + int64(sBits)
}

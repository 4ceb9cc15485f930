package pointer

import (
	"encoding/binary"
	"fmt"
	"math"

	"switchpointer/internal/bitset"
)

// Backend selects the slot-set implementation behind every pointer slot —
// the memory/accuracy trade of the Fig 10 ablation.
//
// All backends answer the same Query/SlotsAt API; they differ in what a
// slot costs and whether its answer is exact:
//
//   - BackendAdaptive (the default): a sorted-index container that promotes
//     to a dense bitmap past the density threshold (occupancy > NumHosts/32,
//     where 4 bytes/member crosses the bitmap's fixed NumHosts/8 bytes).
//     Exact, with memory, recycle cost, and encoded push bytes all scaling
//     with occupancy instead of NumHosts.
//   - BackendDense: one NumHosts-bit bitmap per slot — the paper's §4.1.2
//     layout and the oracle the other backends are measured against.
//   - BackendBloom: a fixed-size per-slot bloom filter with a distinct-count
//     estimator: O(1) switch memory independent of both NumHosts and flow
//     count, at the price of one-sided error — a materialized slot is a
//     SUPERSET of the touched hosts (false positives possible, false
//     negatives never), flagged Approx on every result that includes it.
type Backend int

const (
	// BackendAdaptive is the zero value, so a zero Config selects it.
	BackendAdaptive Backend = iota
	BackendDense
	BackendBloom
)

// String returns the backend's flag spelling.
func (b Backend) String() string {
	switch b {
	case BackendAdaptive:
		return "adaptive"
	case BackendDense:
		return "dense"
	case BackendBloom:
		return "bloom"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend maps a flag spelling to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "adaptive", "":
		return BackendAdaptive, nil
	case "dense":
		return BackendDense, nil
	case "bloom":
		return BackendBloom, nil
	default:
		return 0, fmt.Errorf("pointer: unknown backend %q (want adaptive, dense, or bloom)", s)
	}
}

// Slot-payload kinds on the snapshot wire (see the package comment).
const (
	slotKindDense  byte = 0
	slotKindSparse byte = 1
	slotKindBloom  byte = 2
)

// slotSet is the backend seam: one pointer slot's membership container.
// Implementations are not safe for concurrent use (the Structure's
// single-writer contract covers them).
type slotSet interface {
	// add records host index i.
	add(i int)
	// reset empties the set for slot recycling, retaining buffers where
	// that is cheaper than reallocating.
	reset()
	// exact reports whether materialized membership is exactly the touched
	// set (false for sketches, whose answers are supersets).
	exact() bool
	// addTo sets the bit of every member — for sketches, every candidate —
	// in dst (width NumHosts).
	addTo(dst *bitset.Set)
	// occupancy returns the distinct-host count (an estimate for sketches).
	occupancy() int
	// memoryBytes returns the resident heap size of the container.
	memoryBytes() int
	// encodedBytes returns the wire size encode would produce now.
	encodedBytes() int
	// encode serializes the set as a kind-tagged payload.
	encode() (kind byte, payload []byte)
}

// denseSet is the exact-dense backend: the paper's NumHosts-bit bitmap.
type denseSet struct {
	bits *bitset.Set
}

func (d *denseSet) add(i int)             { d.bits.Set(i) }
func (d *denseSet) reset()                { d.bits.Reset() }
func (d *denseSet) exact() bool           { return true }
func (d *denseSet) addTo(dst *bitset.Set) { dst.UnionWith(d.bits) }
func (d *denseSet) occupancy() int        { return d.bits.Count() }
func (d *denseSet) memoryBytes() int      { return d.bits.SizeBytes() }
func (d *denseSet) encodedBytes() int     { return 8 + d.bits.SizeBytes() }
func (d *denseSet) encode() (byte, []byte) {
	payload, _ := d.bits.MarshalBinary() // never errors
	return slotKindDense, payload
}

// adaptiveSet is the exact-adaptive backend: sparse sorted indices that
// promote (one way, until recycled) to a dense bitmap past the density
// threshold, so cost follows occupancy in the sparse regime and falls back
// to the dense oracle's constants when a slot genuinely fills up.
type adaptiveSet struct {
	n      int
	sparse *bitset.Sparse // nil once promoted
	dense  *bitset.Set    // non-nil once promoted
}

// promoteAt is the occupancy above which sparse storage (4 B/member) costs
// more than the dense bitmap (n/8 B): n/32 members.
func (a *adaptiveSet) promoteAt() int { return a.n / 32 }

func (a *adaptiveSet) add(i int) {
	if a.dense != nil {
		a.dense.Set(i)
		return
	}
	a.sparse.Add(i)
	if a.sparse.Count() > a.promoteAt() {
		a.dense = bitset.New(a.n)
		a.sparse.AddTo(a.dense)
		a.sparse = nil
	}
}

// reset recycles in O(occupancy): a promoted slot drops its bitmap back to
// an empty sparse container (freeing the n/8 bytes); a sparse slot
// truncates in place, keeping its buffer.
func (a *adaptiveSet) reset() {
	if a.dense != nil {
		a.dense = nil
		a.sparse = bitset.NewSparse(a.n)
		return
	}
	a.sparse.Reset()
}

func (a *adaptiveSet) exact() bool { return true }

func (a *adaptiveSet) addTo(dst *bitset.Set) {
	if a.dense != nil {
		dst.UnionWith(a.dense)
		return
	}
	a.sparse.AddTo(dst)
}

func (a *adaptiveSet) occupancy() int {
	if a.dense != nil {
		return a.dense.Count()
	}
	return a.sparse.Count()
}

func (a *adaptiveSet) memoryBytes() int {
	if a.dense != nil {
		return a.dense.SizeBytes()
	}
	return a.sparse.MemoryBytes()
}

func (a *adaptiveSet) encodedBytes() int {
	if a.dense != nil {
		return 8 + a.dense.SizeBytes()
	}
	return 16 + 4*a.sparse.Count()
}

func (a *adaptiveSet) encode() (byte, []byte) {
	if a.dense != nil {
		payload, _ := a.dense.MarshalBinary()
		return slotKindDense, payload
	}
	payload, _ := a.sparse.MarshalBinary()
	return slotKindSparse, payload
}

// Bloom parameter defaults: 16 Kbit (2 KB) per slot, 4 hash probes. At the
// occupancies per-epoch slots see in the scenarios this keeps the
// false-positive rate negligible while staying constant in NumHosts.
const (
	defaultBloomBits   = 16384
	defaultBloomHashes = 4
)

// bloomSet is the sketch backend: a fixed m-bit bloom filter per slot.
// Membership answers are one-sided — addTo produces a SUPERSET of the
// touched hosts, never missing one — and occupancy is the standard
// fill-ratio estimator n̂ = −(m/k)·ln(1 − X/m).
type bloomSet struct {
	n, m, k int
	bits    *bitset.Set // m bits
}

func newBloomSet(n, m, k int) *bloomSet {
	return &bloomSet{n: n, m: m, k: k, bits: bitset.New(m)}
}

// mix64 is SplitMix64's finalizer: a deterministic, dependency-free 64-bit
// mixer driving the double-hashing probe sequence.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// probe returns the j-th bit position for host index i (double hashing:
// h1 + j·h2 mod m, h2 forced odd so the probe sequence cycles fully).
func (bl *bloomSet) probe(i, j int) int {
	h1 := mix64(uint64(i))
	h2 := mix64(h1) | 1
	return int((h1 + uint64(j)*h2) % uint64(bl.m))
}

func (bl *bloomSet) add(i int) {
	for j := 0; j < bl.k; j++ {
		bl.bits.Set(bl.probe(i, j))
	}
}

func (bl *bloomSet) has(i int) bool {
	for j := 0; j < bl.k; j++ {
		if !bl.bits.Get(bl.probe(i, j)) {
			return false
		}
	}
	return true
}

func (bl *bloomSet) reset()      { bl.bits.Reset() }
func (bl *bloomSet) exact() bool { return false }

// addTo materializes the candidate set: every host index the filter cannot
// rule out. O(n·k) — paid at pull time on the analyzer path, not on the
// per-packet datapath.
func (bl *bloomSet) addTo(dst *bitset.Set) {
	for i := 0; i < bl.n; i++ {
		if bl.has(i) {
			dst.Set(i)
		}
	}
}

func (bl *bloomSet) occupancy() int {
	x := bl.bits.Count()
	if x == 0 {
		return 0
	}
	if x >= bl.m {
		return bl.n
	}
	est := -(float64(bl.m) / float64(bl.k)) * math.Log(1-float64(x)/float64(bl.m))
	n := int(est + 0.5)
	if n > bl.n {
		n = bl.n
	}
	return n
}

func (bl *bloomSet) memoryBytes() int  { return bl.bits.SizeBytes() }
func (bl *bloomSet) encodedBytes() int { return 16 + 8 + bl.bits.SizeBytes() }

// encode lays out the bloom payload as 8 bytes m, 8 bytes k, then the
// filter's bitset encoding.
func (bl *bloomSet) encode() (byte, []byte) {
	bits, _ := bl.bits.MarshalBinary()
	payload := make([]byte, 16+len(bits))
	binary.LittleEndian.PutUint64(payload, uint64(bl.m))
	binary.LittleEndian.PutUint64(payload[8:], uint64(bl.k))
	copy(payload[16:], bits)
	return slotKindBloom, payload
}

// newSet constructs an empty slot set for the structure's backend.
func (s *Structure) newSet() slotSet {
	switch s.cfg.Backend {
	case BackendDense:
		return &denseSet{bits: bitset.New(s.cfg.NumHosts)}
	case BackendBloom:
		m, k := s.cfg.bloomParams()
		return newBloomSet(s.cfg.NumHosts, m, k)
	default:
		return &adaptiveSet{n: s.cfg.NumHosts, sparse: bitset.NewSparse(s.cfg.NumHosts)}
	}
}

// restorePayload rebuilds a slot's set from a kind-tagged snapshot payload.
// Exact payloads (dense, sparse) restore into ANY backend by re-inserting
// their members; a bloom payload carries no member list, so it restores
// only into a bloom structure with identical (m, k) parameters. A
// zero-length payload is an untouched (lazily unallocated) slot.
func (s *Structure) restorePayload(kind byte, payload []byte) (slotSet, error) {
	if len(payload) == 0 {
		return nil, nil
	}
	insertAll := func(fe func(func(int) bool)) slotSet {
		var set slotSet
		fe(func(i int) bool {
			if set == nil {
				set = s.newSet()
			}
			set.add(i)
			return true
		})
		return set
	}
	switch kind {
	case slotKindDense:
		var bs bitset.Set
		if err := bs.UnmarshalBinary(payload); err != nil {
			return nil, err
		}
		if bs.Len() != s.cfg.NumHosts {
			return nil, fmt.Errorf("pointer: slot payload width %d, want %d", bs.Len(), s.cfg.NumHosts)
		}
		if s.cfg.Backend == BackendDense && bs.Any() {
			return &denseSet{bits: &bs}, nil
		}
		return insertAll(bs.ForEach), nil
	case slotKindSparse:
		var sp bitset.Sparse
		if err := sp.UnmarshalBinary(payload); err != nil {
			return nil, err
		}
		if sp.Len() != s.cfg.NumHosts {
			return nil, fmt.Errorf("pointer: slot payload width %d, want %d", sp.Len(), s.cfg.NumHosts)
		}
		return insertAll(sp.ForEach), nil
	case slotKindBloom:
		if len(payload) < 16 {
			return nil, fmt.Errorf("pointer: truncated bloom payload (%d bytes)", len(payload))
		}
		if s.cfg.Backend != BackendBloom {
			return nil, fmt.Errorf("pointer: bloom slot payload cannot restore into a %s structure", s.cfg.Backend)
		}
		m := int(binary.LittleEndian.Uint64(payload))
		k := int(binary.LittleEndian.Uint64(payload[8:]))
		wantM, wantK := s.cfg.bloomParams()
		if m != wantM || k != wantK {
			return nil, fmt.Errorf("pointer: bloom parameter mismatch (snapshot m=%d k=%d, structure m=%d k=%d)", m, k, wantM, wantK)
		}
		bl := newBloomSet(s.cfg.NumHosts, m, k)
		if err := bl.bits.UnmarshalBinary(payload[16:]); err != nil {
			return nil, err
		}
		if !bl.bits.Any() {
			return nil, nil
		}
		return bl, nil
	default:
		return nil, fmt.Errorf("pointer: unknown slot payload kind %d", kind)
	}
}

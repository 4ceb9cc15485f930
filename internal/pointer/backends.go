package pointer

import (
	"fmt"

	"switchpointer/internal/bitset"
)

// Backend selects the slot-set implementation behind every pointer slot.
// Both backends are exact and answer the same Query/SlotsAt API; they
// differ only in what a slot costs:
//
//   - BackendAdaptive (the default, and what every deployed switch runs): a
//     sorted-index container that promotes to a dense bitmap past the
//     density threshold (occupancy > NumHosts/32, where 4 bytes/member
//     crosses the bitmap's fixed NumHosts/8 bytes), so memory, recycle cost
//     and encoded push bytes scale with occupancy instead of NumHosts.
//   - BackendDense: one NumHosts-bit bitmap per slot — the paper's §4.1.2
//     layout, which Figs 9–11 measure, and the reference adaptive is
//     checked against.
type Backend int

const (
	// BackendAdaptive is the zero value, so a zero Config selects it.
	BackendAdaptive Backend = iota
	BackendDense
)

// String returns the backend's name.
func (b Backend) String() string {
	switch b {
	case BackendAdaptive:
		return "adaptive"
	case BackendDense:
		return "dense"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// Slot-payload kinds on the snapshot wire (see the package comment).
const (
	slotKindDense  byte = 0
	slotKindSparse byte = 1
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
	// addTo sets the bit of every member in dst (width NumHosts).
	addTo(dst *bitset.Set)
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
func (d *denseSet) addTo(dst *bitset.Set) { dst.UnionWith(d.bits) }
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

func (a *adaptiveSet) addTo(dst *bitset.Set) {
	if a.dense != nil {
		dst.UnionWith(a.dense)
		return
	}
	a.sparse.AddTo(dst)
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

// newSet constructs an empty slot set for the structure's backend.
func (s *Structure) newSet() slotSet {
	switch s.cfg.Backend {
	case BackendDense:
		return &denseSet{bits: bitset.New(s.cfg.NumHosts)}
	default:
		return &adaptiveSet{n: s.cfg.NumHosts, sparse: bitset.NewSparse(s.cfg.NumHosts)}
	}
}

// restorePayload rebuilds a slot's set from a kind-tagged snapshot payload.
// Both payload kinds (dense, sparse) restore into either backend by
// re-inserting their members; any other kind is refused. A zero-length
// payload is an untouched (lazily unallocated) slot.
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
	default:
		return nil, fmt.Errorf("pointer: unknown slot payload kind %d", kind)
	}
}

package store

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"

	"switchpointer/internal/bitset"
	"switchpointer/internal/flowrec"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// manifestVersion is the current SegmentManifest index version. Version 0
// (the pre-index format) carries only the epoch range and counters; version
// 1 adds the per-segment flow-key index (switch set, flow-key bounds, bloom
// filter). Readers treat any unindexed manifest conservatively: it may
// contain anything, so it always matches.
const manifestVersion = 1

// SegmentManifest is the tiny per-segment index persisted alongside every
// evicted segment: enough for a cold read-back to decide whether a segment
// can possibly answer a query WITHOUT decoding it.
//
// The zero (version 0) manifest carries only Epochs/Flows/Bytes; version 1
// manifests (built by NewSegmentManifest) additionally index WHICH switches
// and WHICH flows the segment's records cover, so an epoch-overlapping
// query that asks about a switch or flows the segment cannot contain is
// skipped without touching the payload. Index fields are strictly
// conservative: a nil/absent field never excludes anything.
type SegmentManifest struct {
	// Epochs is the union of the evicted records' per-switch epoch ranges —
	// a segment whose Epochs does not overlap a query window holds no
	// matching record.
	Epochs simtime.EpochRange `json:"epochs"`
	// Flows is the number of records in the segment.
	Flows int `json:"flows"`
	// Bytes is the encoded segment size.
	Bytes int `json:"bytes"`

	// V is the manifest index version (0 = unindexed pre-index format;
	// manifestVersion = fully indexed).
	V int `json:"v,omitempty"`
	// Switches is the sorted set of switches traversed by any record in the
	// segment. A version ≥ 1 manifest whose Switches excludes a query's
	// switch cannot answer it.
	Switches []netsim.NodeID `json:"switches,omitempty"`
	// FlowLo/FlowHi are the exact min/max flow keys (flowrec.Less order) in
	// the segment — cheap range exclusion before the bloom probe.
	FlowLo *netsim.FlowKey `json:"flow_lo,omitempty"`
	FlowHi *netsim.FlowKey `json:"flow_hi,omitempty"`
	// Bloom is the compact flow-key membership filter (~10 bits/flow).
	Bloom *FlowBloom `json:"bloom,omitempty"`

	// Tiered marks a segment whose payload was archived or deleted by age
	// tiering: the manifest survives so queries report the gap honestly
	// (ErrTiered / TieredSegments) instead of silently missing data.
	Tiered bool `json:"tiered,omitempty"`
}

// MayContainSwitch reports whether the segment can hold a record that
// traversed sw. Unindexed (version 0) manifests always may.
func (m *SegmentManifest) MayContainSwitch(sw netsim.NodeID) bool {
	if m.V < 1 {
		return true
	}
	i := sort.Search(len(m.Switches), func(i int) bool { return m.Switches[i] >= sw })
	return i < len(m.Switches) && m.Switches[i] == sw
}

// MayContainFlow reports whether the segment can hold flow f's record.
// Unindexed (version 0) manifests always may.
func (m *SegmentManifest) MayContainFlow(f netsim.FlowKey) bool {
	if m.V < 1 {
		return true
	}
	if m.FlowLo != nil && flowrec.Less(f, *m.FlowLo) {
		return false
	}
	if m.FlowHi != nil && flowrec.Less(*m.FlowHi, f) {
		return false
	}
	if m.Bloom != nil && !m.Bloom.MayContain(f) {
		return false
	}
	return true
}

// MayContainAnyFlow reports whether the segment can hold any of the given
// flows' records.
func (m *SegmentManifest) MayContainAnyFlow(fs []netsim.FlowKey) bool {
	for _, f := range fs {
		if m.MayContainFlow(f) {
			return true
		}
	}
	return false
}

// NewSegmentManifest indexes one segment's records: the union of their
// per-switch epoch ranges (and exact-epoch accounting, so untagged flows
// stay addressable), the sorted switch set, the exact flow-key bounds, and
// a bloom filter over the flow keys. The caller sets Bytes after encoding.
func NewSegmentManifest(recs []*flowrec.Record) SegmentManifest {
	var x manifestIndex
	for _, r := range recs {
		x.add(r)
	}
	return x.manifest()
}

// manifestIndex builds a SegmentManifest one record at a time, copying what
// it needs of each record it is shown: an eviction sweep feeds it the
// records it reads under their shards' locks, scratch decodes included.
type manifestIndex struct {
	epochs   simtime.EpochRange
	spanned  bool // epochs holds a range
	switches []netsim.NodeID
	flows    []netsim.FlowKey
}

// add indexes r.
func (x *manifestIndex) add(r *flowrec.Record) {
	for _, er := range r.Epochs {
		x.widen(er)
	}
	for e := range r.EpochBytes {
		x.widen(simtime.EpochRange{Lo: e, Hi: e})
	}
	for _, sw := range r.Path {
		if i, found := slices.BinarySearch(x.switches, sw); !found {
			x.switches = slices.Insert(x.switches, i, sw)
		}
	}
	x.flows = append(x.flows, r.Flow)
}

func (x *manifestIndex) widen(er simtime.EpochRange) {
	if x.spanned {
		er = x.epochs.Union(er)
	}
	x.epochs, x.spanned = er, true
}

// manifest returns the index of every record added so far.
func (x *manifestIndex) manifest() SegmentManifest {
	m := SegmentManifest{Epochs: x.epochs, Flows: len(x.flows), V: manifestVersion, Switches: x.switches}
	if len(x.flows) == 0 {
		return m
	}
	m.Bloom = NewFlowBloom(len(x.flows))
	lo, hi := x.flows[0], x.flows[0]
	for _, f := range x.flows {
		m.Bloom.Add(f)
		if flowrec.Less(f, lo) {
			lo = f
		}
		if flowrec.Less(hi, f) {
			hi = f
		}
	}
	m.FlowLo, m.FlowHi = &lo, &hi
	return m
}

// Bloom geometry: ~10 bits per flow and 7 probes target a ~1% false
// positive rate; fixed seeds keep the filter fully deterministic (the same
// record set always yields the same bytes).
const (
	bloomBitsPerFlow = 10
	bloomHashes      = 7
	bloomSeed1       = 0x9e3779b97f4a7c15
	bloomSeed2       = 0xc2b2ae3d27d4eb4f
)

// FlowBloom is a compact bloom filter over flow keys, backed by
// bitset.Set. The zero value is unusable; build with NewFlowBloom or
// unmarshal a persisted one.
type FlowBloom struct {
	k    int
	bits *bitset.Set
}

// NewFlowBloom sizes a filter for n flows at ~bloomBitsPerFlow bits each
// (minimum one 64-bit word).
func NewFlowBloom(n int) *FlowBloom {
	m := n * bloomBitsPerFlow
	if m < 64 {
		m = 64
	}
	return &FlowBloom{k: bloomHashes, bits: bitset.New(m)}
}

// Add inserts a flow key.
func (b *FlowBloom) Add(f netsim.FlowKey) {
	h1, h2 := bloomHash(f)
	m := uint64(b.bits.Len())
	for i := 0; i < b.k; i++ {
		b.bits.Set(int((h1 + uint64(i)*h2) % m))
	}
}

// MayContain reports whether f may have been added (never a false
// negative).
func (b *FlowBloom) MayContain(f netsim.FlowKey) bool {
	h1, h2 := bloomHash(f)
	m := uint64(b.bits.Len())
	for i := 0; i < b.k; i++ {
		if !b.bits.Get(int((h1 + uint64(i)*h2) % m)) {
			return false
		}
	}
	return true
}

// SizeBytes returns the filter's bit-array size in bytes.
func (b *FlowBloom) SizeBytes() int { return b.bits.SizeBytes() }

// bloomHash derives the double-hashing pair (h1, h2) from a flow key with
// fixed seeds — deterministic across processes and runs. h2 is forced odd
// so the probe sequence cycles through distinct positions for power-of-two
// and near-power-of-two filter sizes alike.
func bloomHash(f netsim.FlowKey) (h1, h2 uint64) {
	packed := uint64(f.SrcPort)<<40 | uint64(f.DstPort)<<24 | uint64(f.Proto)
	addrs := uint64(f.Src)<<32 | uint64(f.Dst)
	h1 = mix64(mix64(bloomSeed1^addrs) ^ packed)
	h2 = mix64(mix64(bloomSeed2^addrs) ^ packed)
	h2 |= 1
	return h1, h2
}

// mix64 is the splitmix64 finalizer — a fixed, seedless avalanche.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// flowBloomJSON is the persisted form: probe count plus the base64 of the
// bitset's binary encoding.
type flowBloomJSON struct {
	K    int    `json:"k"`
	Bits string `json:"bits"`
}

// MarshalJSON implements json.Marshaler.
func (b *FlowBloom) MarshalJSON() ([]byte, error) {
	raw, err := b.bits.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return json.Marshal(flowBloomJSON{K: b.k, Bits: base64.StdEncoding.EncodeToString(raw)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *FlowBloom) UnmarshalJSON(data []byte) error {
	var w flowBloomJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("store: flow bloom: %w", err)
	}
	if w.K <= 0 {
		return fmt.Errorf("store: flow bloom: invalid probe count %d", w.K)
	}
	raw, err := base64.StdEncoding.DecodeString(w.Bits)
	if err != nil {
		return fmt.Errorf("store: flow bloom: %w", err)
	}
	s := &bitset.Set{}
	if err := s.UnmarshalBinary(raw); err != nil {
		return fmt.Errorf("store: flow bloom: %w", err)
	}
	b.k, b.bits = w.K, s
	return nil
}

// ErrTiered is returned by ColdView.ReadSegment for a segment whose payload
// was archived or deleted by age tiering: its manifest remains addressable,
// but the data is gone from this tier. Queries surface the gap through
// TieredSegments accounting instead of failing.
var ErrTiered = errors.New("store: segment tiered out")

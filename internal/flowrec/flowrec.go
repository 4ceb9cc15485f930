// Package flowrec defines the per-flow telemetry records end hosts maintain.
//
// This is the PathDump-extended record of §6: one record per received flow
// holding the usual 5-tuple, the switch-level path, a series of epoch ranges
// corresponding to each switch, byte/packet counts (including per-epoch byte
// counts at the tagging switch), and the flow's DSCP priority. Records are
// what the analyzer's distributed queries run against.
//
// # Segment format
//
// Wherever records are persisted or streamed (Flush, eviction sinks, cold
// segments, compaction, /snapshot frames, the host's /headers-batch and
// /record answers, /ingest batches) they travel as segments (codec.go):
// a 20-byte header, then the records back to back. A record's own encoding
// (AppendRecord) is also the host store's resident form for the records it
// did not absorb itself, so a host answer is spliced from stored bytes
// (SpliceSegment) and a cold segment's matches leave it as bytes
// (ScanSegment), none of them decoded. Fixed-width integers are
// little-endian; uvarint and varint (zigzag) are encoding/binary's.
//
//	header  0x89 'S' 'P'   magic — a pointer snapshot opens 0x8A 'P' 'T'
//	        u8             version (1)
//	        u32 ×3         records, Σ len(Path), Σ len(Epochs)
//	        u32            body length: a segment is self-delimiting
//	record  u32 u32        Flow.Src, Flow.Dst
//	        u16 u16 u8 u8  Flow.SrcPort, Flow.DstPort, Flow.Proto, Priority
//	        varint         TagIdx (−1 = untagged)
//	        uvarint ×3     TagLink, Bytes, Pkts
//	        varint ×2      FirstSeen, LastSeen
//	        uvarint        len(Path), then a uvarint per switch
//	        uvarint        len(Epochs), then varint Lo, varint Hi per switch
//	        uvarint        0 = nil EpochBytes, else entries+1, then (varint
//	                       epoch, uvarint bytes) pairs in ascending epoch order
//
// Equal records encode to equal bytes. A decoder checks the counts against
// the body length before sizing anything from them, and a body must consume
// exactly those counts. An empty Path or Epochs decodes as nil and a nil
// EpochBytes stays nil (an empty one stays empty), so a record's JSON
// survives the round trip.
//
// DecodeSegment materialises only the records its keep predicate admits (nil
// admits all: loads, snapshots, bootstrap, compaction). keep runs once per
// record, in order, on a scratch record holding every field but EpochBytes;
// it must not retain it. A rejected record is still validated in full, so a
// segment decodes with a keep exactly when it decodes without, to the full
// decode filtered by keep.
package flowrec

import (
	"cmp"
	"fmt"
	"slices"

	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// Record is one flow's telemetry at its destination host.
type Record struct {
	Flow     netsim.FlowKey
	Priority uint8
	// steady: the last Absorb moved nothing a store indexes (see Absorb).
	// It sits in Priority's padding.
	steady bool

	// Path is the switch trajectory; Epochs[i] is the (unioned) epoch range
	// observed at Path[i] across all packets of the flow.
	Path   []netsim.NodeID
	Epochs []simtime.EpochRange
	// TagIdx is the index of the switch whose epochs are exact; −1 when the
	// flow's packets carried no epoch tag.
	TagIdx int

	// TagLink is the CherryPick link the flow's packets were stamped with
	// (0 when untagged). For parallel-link topologies this identifies the
	// egress interface the flow used — the load-imbalance signal of §5.4.
	TagLink topo.LinkID

	Bytes uint64
	Pkts  uint64
	// EpochBytes counts bytes per exact epoch of the tagging switch (or of
	// the host-estimated epoch for untagged flows). These are the
	// "byte counts per epoch" carried in alerts (§5.1).
	EpochBytes map[simtime.Epoch]uint64

	FirstSeen simtime.Time
	LastSeen  simtime.Time
}

// New creates an empty record for a flow.
func New(flow netsim.FlowKey) *Record {
	return &Record{Flow: flow, TagIdx: -1, EpochBytes: make(map[simtime.Epoch]uint64)}
}

// Absorb merges one received packet's decoded telemetry into the record.
//
// Absorb runs once per received packet and is allocation-free on the
// steady-state path (flow already known, trajectory unchanged, exact epoch
// already seen); only the first packet and path changes copy the decoded
// trajectory. dec may alias decoder-owned scratch buffers — everything kept
// is copied here.
//
// Absorb also vouches for what it did NOT change. A store files a record by
// its Path and caches its Epochs beside the index, so it must re-file after
// any mutation unless told otherwise. Absorb marks the record steady when
// the path is unchanged and no union actually widened a range; store.Release
// reads the mark through TakeSteady and skips its reindex only then. The
// default is the safe one: a record mutated any other way — by hand, through
// Put or Reindex — carries no mark and is always reindexed.
func (r *Record) Absorb(p *netsim.Packet, dec header.Decoded, now simtime.Time) {
	r.steady = false
	if r.Pkts == 0 {
		r.FirstSeen = now
		r.Path = append([]netsim.NodeID(nil), dec.Path...)
		r.Epochs = append([]simtime.EpochRange(nil), dec.Epochs...)
		r.TagIdx = dec.TagIdx
	} else if pathsEqual(r.Path, dec.Path) {
		r.steady = true
		for i := range r.Epochs {
			if u := r.Epochs[i].Union(dec.Epochs[i]); u != r.Epochs[i] {
				r.Epochs[i] = u
				r.steady = false
			}
		}
	} else {
		// Path changed mid-flow (rerouting). Keep the latest path but widen
		// nothing: restart the epoch series for the new trajectory.
		r.Path = append(r.Path[:0], dec.Path...)
		r.Epochs = append(r.Epochs[:0], dec.Epochs...)
		r.TagIdx = dec.TagIdx
	}
	r.LastSeen = now
	r.Priority = p.Priority
	r.Bytes += uint64(p.Size)
	r.Pkts++
	if tag, ok := p.TagOf(netsim.TagLink); ok {
		r.TagLink = topo.LinkID(tag.Value)
	}
	// Exact epoch accounting: at the tagging switch in commodity mode, at
	// the first hop in INT mode, or the host-estimate midpoint when untagged.
	r.AddEpochBytes(exactEpoch(dec), uint64(p.Size))
}

// AddEpochBytes counts n more bytes in exact epoch e.
func (r *Record) AddEpochBytes(e simtime.Epoch, n uint64) {
	r.EpochBytes[e] += n
}

func exactEpoch(dec header.Decoded) simtime.Epoch {
	switch {
	case dec.TagIdx >= 0 && dec.TagIdx < len(dec.Epochs):
		return dec.Epochs[dec.TagIdx].Lo
	case dec.Mode == header.ModeINT && len(dec.Epochs) > 0:
		return dec.Epochs[0].Lo
	case len(dec.Epochs) > 0:
		mid := (dec.Epochs[0].Lo + dec.Epochs[0].Hi) / 2
		return mid
	default:
		return 0
	}
}

func pathsEqual(a, b []netsim.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TakeSteady reports whether the record's last Absorb vouched that neither
// path nor epochs changed, and withdraws the mark: one Absorb vouches for one
// Release. Stores also call it wherever a stale mark must not survive.
func (r *Record) TakeSteady() bool {
	s := r.steady
	r.steady = false
	return s
}

// EpochsAt returns the epoch range the flow was seen at switch sw, if the
// switch is on the recorded path (and, for a malformed record off the wire,
// the epoch series reaches it).
func (r *Record) EpochsAt(sw netsim.NodeID) (simtime.EpochRange, bool) {
	if i := slices.Index(r.Path, sw); i >= 0 && i < len(r.Epochs) {
		return r.Epochs[i], true
	}
	return simtime.EpochRange{}, false
}

// Traverses reports whether the flow's path visits switch sw.
func (r *Record) Traverses(sw netsim.NodeID) bool {
	_, ok := r.EpochsAt(sw)
	return ok
}

// BytesIn returns the bytes the flow carried during epochs overlapping er
// (by the record's exact-epoch accounting).
func (r *Record) BytesIn(er simtime.EpochRange) uint64 {
	var total uint64
	for e, b := range r.EpochBytes {
		if er.Contains(e) {
			total += b
		}
	}
	return total
}

// Compare orders flow keys lexicographically (src, dst, src port, dst port,
// proto) — the deterministic order every store query answer is merged in.
func Compare(a, b netsim.FlowKey) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPort, b.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// Less reports whether a sorts before b under Compare.
func Less(a, b netsim.FlowKey) bool { return Compare(a, b) < 0 }

// SortRecords puts recs in the Compare order of their flows.
func SortRecords(recs []*Record) {
	slices.SortFunc(recs, func(a, b *Record) int { return Compare(a.Flow, b.Flow) })
}

// SortEncoded puts record encodings (see AppendRecord) in the Compare order
// of their flows.
func SortEncoded(encs [][]byte) {
	slices.SortFunc(encs, func(a, b []byte) int { return Compare(FlowOf(a), FlowOf(b)) })
}

// Clone returns a deep copy that shares no storage with r — how a caller
// keeps a record a store callback hands it past the call.
func (r *Record) Clone() *Record {
	c := *r
	c.steady = false
	c.Path = append([]netsim.NodeID(nil), r.Path...)
	c.Epochs = append([]simtime.EpochRange(nil), r.Epochs...)
	c.EpochBytes = make(map[simtime.Epoch]uint64, len(r.EpochBytes))
	for k, v := range r.EpochBytes {
		c.EpochBytes[k] = v
	}
	return &c
}

// String summarises the record.
func (r *Record) String() string {
	return fmt.Sprintf("%v prio=%d path=%v bytes=%d pkts=%d", r.Flow, r.Priority, r.Path, r.Bytes, r.Pkts)
}

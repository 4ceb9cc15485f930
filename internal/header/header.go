// Package header implements SwitchPointer's in-band telemetry headers:
// embedding at switches and decoding at end hosts.
//
// Two modes are supported, as in the paper (§4.1.3):
//
//   - ModeCommodity — the deployable technique: a CherryPick key-link ID in
//     one 802.1ad VLAN tag plus the tagging switch's epochID in a second tag.
//     The receiving host reconstructs the full switch path from (src, dst,
//     linkID) using topology knowledge and *extrapolates* epoch ranges for
//     the non-tagging switches from the single epochID (§4.2.1), using the
//     datacenter's clock-drift bound ε and maximum per-hop delay Δ.
//
//   - ModeINT — the clean-slate alternative: every switch appends its
//     (switchID, epochID) to an INT stack, giving exact per-hop epochs on
//     arbitrary topologies at the cost of per-hop header growth.
//
// Both modes produce the same Decoded form for the host agent.
package header

import (
	"fmt"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// Mode selects the telemetry embedding technique.
type Mode uint8

// Embedding modes.
const (
	ModeCommodity Mode = iota // double VLAN tag, clos topologies only
	ModeINT                   // per-hop INT stack, arbitrary topologies
)

func (m Mode) String() string {
	switch m {
	case ModeCommodity:
		return "commodity"
	case ModeINT:
		return "int"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Params are the network-wide constants the epoch extrapolation of §4.2.1
// depends on. The paper's running example uses ε = α and Δ = 2α.
type Params struct {
	Alpha simtime.Time // epoch duration α
	Eps   simtime.Time // max pairwise clock drift ε
	Delta simtime.Time // max one-hop (queueing+forwarding) delay Δ
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Alpha <= 0 {
		return fmt.Errorf("header: Alpha must be positive")
	}
	if p.Eps < 0 || p.Delta < 0 {
		return fmt.Errorf("header: Eps and Delta must be non-negative")
	}
	return nil
}

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b simtime.Time) int64 {
	if a <= 0 {
		return 0
	}
	return int64((a + b - 1) / b)
}

// Decoded is the telemetry extracted from one packet at its destination: the
// switch-level path and, per switch, the range of local epochs during which
// that switch may have processed the packet.
type Decoded struct {
	Mode Mode
	// Path is the switch trajectory, source ToR first.
	Path []netsim.NodeID
	// Epochs[i] is the epoch range at Path[i].
	Epochs []simtime.EpochRange
	// TagIdx is the index in Path of the switch whose exact epoch was
	// carried in the header (commodity mode); −1 when the packet carried no
	// epoch tag (single-switch paths) or in INT mode (all hops exact).
	TagIdx int
}

// EpochAt returns the epoch range for switch id, if it is on the path.
func (d *Decoded) EpochAt(id netsim.NodeID) (simtime.EpochRange, bool) {
	for i, sw := range d.Path {
		if sw == id {
			return d.Epochs[i], true
		}
	}
	return simtime.EpochRange{}, false
}

// ExtrapolateEpochs computes per-switch epoch ranges for a path of length n
// given the exact epoch ei observed at index tagIdx (§4.2.1):
//
//	upstream,   j hops before the tagging switch: [ei−(ε+j·Δ)/α, ei+ε/α]
//	downstream, j hops after the tagging switch:  [ei−ε/α, ei+(ε+j·Δ)/α]
//
// Divisions are taken as ceilings — the conservative reading that never
// excludes a feasible epoch. The tagging switch itself gets [ei, ei].
func ExtrapolateEpochs(n, tagIdx int, ei simtime.Epoch, p Params) []simtime.EpochRange {
	return appendExtrapolatedEpochs(nil, n, tagIdx, ei, p)
}

// appendExtrapolatedEpochs is ExtrapolateEpochs into a caller-provided
// buffer, the allocation-free form the per-packet decode path uses.
func appendExtrapolatedEpochs(out []simtime.EpochRange, n, tagIdx int, ei simtime.Epoch, p Params) []simtime.EpochRange {
	drift := simtime.Epoch(ceilDiv(p.Eps, p.Alpha))
	for i := 0; i < n; i++ {
		var r simtime.EpochRange
		switch {
		case i == tagIdx:
			r = simtime.EpochRange{Lo: ei, Hi: ei}
		case i < tagIdx: // upstream: the packet was there earlier
			j := simtime.Time(tagIdx - i)
			span := simtime.Epoch(ceilDiv(p.Eps+j*p.Delta, p.Alpha))
			r = simtime.EpochRange{Lo: ei - span, Hi: ei + drift}
		default: // downstream: the packet got there later
			j := simtime.Time(i - tagIdx)
			span := simtime.Epoch(ceilDiv(p.Eps+j*p.Delta, p.Alpha))
			r = simtime.EpochRange{Lo: ei - drift, Hi: ei + span}
		}
		out = append(out, r)
	}
	return out
}

// Embedder is the switch-side half: a netsim pipeline stage that stamps
// telemetry into forwarded packets.
type Embedder struct {
	Topo   *topo.Topology
	Mode   Mode
	Params Params

	// RuleUpdateInterval models how often the switch can rewrite its
	// epoch-tagging flow rule. Commodity OpenFlow hardware manages ~one
	// update per 15 ms (§4.1.3), which lower-bounds the effective α there;
	// zero means the rule tracks every epoch boundary exactly (software
	// switches, INT).
	RuleUpdateInterval simtime.Time

	// TagsPushed counts (linkID, epochID) tag pairs stamped.
	TagsPushed uint64
	// INTRecords counts INT hop records appended.
	INTRecords uint64
}

// Stage returns the pipeline function to install on a switch.
func (e *Embedder) Stage() netsim.PipelineFunc {
	return func(sw *netsim.Switch, p *netsim.Packet, in, out *netsim.Port, now simtime.Time) {
		e.Embed(sw, p, out, now)
	}
}

// Embed stamps telemetry for one forwarded packet.
func (e *Embedder) Embed(sw *netsim.Switch, p *netsim.Packet, out *netsim.Port, now simtime.Time) {
	switch e.Mode {
	case ModeINT:
		p.AppendINT(netsim.HopRecord{Switch: sw.NodeID(), Epoch: e.epochFor(sw, now)})
		e.INTRecords++
	case ModeCommodity:
		if p.NTag != 0 {
			return // already tagged upstream; rules match untagged packets only
		}
		if !e.Topo.IsKeyLinkEgress(sw, p.Flow.Dst, out.Index()) {
			return
		}
		link, ok := e.Topo.LinkIDForPort(sw.NodeID(), out.Index())
		if !ok {
			return
		}
		p.PushTag(netsim.Tag{Type: netsim.TagLink, Value: uint32(link)})
		p.PushTag(netsim.Tag{Type: netsim.TagEpoch, Value: uint32(e.epochFor(sw, now))})
		e.TagsPushed++
	}
}

// epochFor returns the epoch value the switch would stamp at time now,
// accounting for the flow-rule update cadence: with a non-zero
// RuleUpdateInterval the stamped epoch is the one that was current at the
// last permitted rule update, which can lag the true local epoch.
func (e *Embedder) epochFor(sw *netsim.Switch, now simtime.Time) simtime.Epoch {
	local := sw.Clock.Local(now)
	if e.RuleUpdateInterval > e.Params.Alpha {
		// Quantize local time to the rule-update grid before taking the
		// epoch: the rule still carries the epoch of the last update.
		local = (local / e.RuleUpdateInterval) * e.RuleUpdateInterval
	}
	return simtime.EpochOf(local, e.Params.Alpha)
}

// EpochRuleUpdatesPerSecond reports how often the epoch rule must be
// rewritten under this configuration (§4.1.3 accounting: one rule, updated
// once per effective epoch).
func (e *Embedder) EpochRuleUpdatesPerSecond() float64 {
	period := e.Params.Alpha
	if e.RuleUpdateInterval > period {
		period = e.RuleUpdateInterval
	}
	return float64(simtime.Second) / float64(period)
}

// Decoder is the host-side half: it turns received packets into Decoded
// telemetry.
//
// Decoding runs once per received packet, so the decoder is built for zero
// steady-state allocations: path reconstruction is memoized per
// (src, dst, link) — routes are static once a topology is built, so the
// reconstruction is a pure function of that key — and the per-switch epoch
// ranges are computed into decoder-owned scratch buffers. The returned
// Decoded therefore aliases decoder-owned memory and is only valid until
// the next Decode call; consumers must copy what they keep (the host
// agent's record absorption already does).
//
// Ahead of that shared memo a caller may keep a PathMemo per flow
// (DecodeMemo): one (src, dst, link) entry, checked before the shared map,
// so a flow's steady-state packets hash nothing. It is valid under the
// same static-route condition as the shared memo (netsim.Switch.SetRoute),
// and decodes exactly as the shared memo alone does.
//
// A Decoder is NOT goroutine-safe: it is driven by the single-threaded
// simulation loop. The analyzer's parallel query fan-out never touches it.
type Decoder struct {
	Topo   *topo.Topology
	Mode   Mode
	Params Params

	paths       map[pathKey]pathVal  // memoized ReconstructPath results
	pathScratch []netsim.NodeID      // INT-mode path scratch
	epochs      []simtime.EpochRange // epoch-range scratch
}

type pathKey struct {
	src, dst netsim.IPv4
	link     topo.LinkID
}

type pathVal struct {
	path   []netsim.NodeID
	tagIdx int
}

// PathMemo is a caller-owned, one-entry path memo for DecodeMemo: the last
// (src, dst, link) key it resolved and that key's path. The zero value is
// empty. Its path aliases the decoder's shared memo, which never changes an
// entry, so it stays valid for the decoder's life.
type PathMemo struct {
	key pathKey
	val pathVal
	ok  bool
}

// Decode extracts the path and per-switch epoch ranges from a packet
// arriving at true time now at a host with the given clock. The result
// aliases decoder-owned buffers and is valid until the next Decode call.
func (d *Decoder) Decode(p *netsim.Packet, now simtime.Time, hostClock *simtime.Clock) (Decoded, error) {
	return d.DecodeMemo(p, now, hostClock, nil)
}

// DecodeMemo is Decode consulting memo (nil: none) ahead of the decoder's
// shared path memo, and refilling it on a miss. The answer is Decode's.
func (d *Decoder) DecodeMemo(p *netsim.Packet, now simtime.Time, hostClock *simtime.Clock, memo *PathMemo) (Decoded, error) {
	if d.Mode == ModeINT {
		return d.decodeINT(p)
	}
	return d.decodeCommodity(p, now, hostClock, memo)
}

func (d *Decoder) decodeINT(p *netsim.Packet) (Decoded, error) {
	if len(p.INT) == 0 {
		return Decoded{}, fmt.Errorf("header: INT mode packet with empty stack (flow %s)", p.Flow)
	}
	dec := Decoded{Mode: ModeINT, TagIdx: -1}
	dec.Path = d.pathScratch[:0]
	dec.Epochs = d.epochs[:0]
	for _, hop := range p.INT {
		dec.Path = append(dec.Path, hop.Switch)
		dec.Epochs = append(dec.Epochs, simtime.EpochRange{Lo: hop.Epoch, Hi: hop.Epoch})
	}
	d.pathScratch = dec.Path
	d.epochs = dec.Epochs
	return dec, nil
}

// reconstructPath memoizes Topology.ReconstructPath, in memo (when not nil)
// and then in the decoder's shared map. The memos rely on routes being
// static once traffic flows: every route (netsim.Switch.SetRoute,
// RouteOverride) is installed before the first packet and none changes
// after, so the path for a (src, dst, link) key never changes. Errors are
// not cached (they are cold paths by construction).
func (d *Decoder) reconstructPath(k pathKey, memo *PathMemo) ([]netsim.NodeID, int, error) {
	if memo != nil && memo.ok && memo.key == k {
		return memo.val.path, memo.val.tagIdx, nil
	}
	v, ok := d.paths[k]
	if !ok {
		path, tagIdx, err := d.Topo.ReconstructPath(k.src, k.dst, k.link)
		if err != nil {
			return nil, 0, err
		}
		if d.paths == nil {
			d.paths = make(map[pathKey]pathVal)
		}
		v = pathVal{path: path, tagIdx: tagIdx}
		d.paths[k] = v
	}
	if memo != nil {
		*memo = PathMemo{key: k, val: v, ok: true}
	}
	return v.path, v.tagIdx, nil
}

func (d *Decoder) decodeCommodity(p *netsim.Packet, now simtime.Time, hostClock *simtime.Clock, memo *PathMemo) (Decoded, error) {
	linkTag, hasLink := p.TagOf(netsim.TagLink)
	epochTag, hasEpoch := p.TagOf(netsim.TagEpoch)
	var link topo.LinkID
	if hasLink {
		link = topo.LinkID(linkTag.Value)
	}
	path, tagIdx, err := d.reconstructPath(pathKey{src: p.Flow.Src, dst: p.Flow.Dst, link: link}, memo)
	if err != nil {
		return Decoded{}, err
	}
	if hasLink != hasEpoch {
		return Decoded{}, fmt.Errorf("header: half-tagged packet (link=%v epoch=%v)", hasLink, hasEpoch)
	}
	if hasEpoch {
		ei := simtime.Epoch(int32(epochTag.Value))
		d.epochs = appendExtrapolatedEpochs(d.epochs[:0], len(path), tagIdx, ei, d.Params)
		return Decoded{
			Mode:   ModeCommodity,
			Path:   path,
			Epochs: d.epochs,
			TagIdx: tagIdx,
		}, nil
	}
	// Untagged single-switch path: no epoch was carried. Estimate from the
	// arrival time — the switch processed the packet at most Δ before now,
	// with clock skew up to ε either way.
	local := hostClock.Local(now)
	lo := simtime.EpochOf(local-d.Params.Eps-d.Params.Delta, d.Params.Alpha)
	hi := simtime.EpochOf(local+d.Params.Eps, d.Params.Alpha)
	d.epochs = append(d.epochs[:0], simtime.EpochRange{Lo: lo, Hi: hi})
	return Decoded{
		Mode:   ModeCommodity,
		Path:   path,
		Epochs: d.epochs,
		TagIdx: -1,
	}, nil
}

// WireOverheadBytes returns the per-packet header growth of each mode for a
// path of n switches: commodity mode pays two VLAN tags regardless of path
// length; INT pays per hop.
func WireOverheadBytes(mode Mode, pathLen int) int {
	if mode == ModeINT {
		return pathLen * netsim.INTHopBytes
	}
	if pathLen <= 1 {
		return 0
	}
	return 2 * netsim.VLANTagBytes
}

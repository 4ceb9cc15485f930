// Package switchagent implements the switch side of SwitchPointer: the data
// plane pipeline (one MPH lookup + k-level pointer update + telemetry tag
// push per forwarded packet) and the control-plane agent that rotates pointer
// slots at epoch boundaries, pushes sealed top-level slots to persistent
// storage, and serves the analyzer's pointer pulls (§4.1).
package switchagent

import (
	"encoding/binary"
	"fmt"
	"sync"

	"switchpointer/internal/bitset"
	"switchpointer/internal/header"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// Config parameterizes one switch agent.
type Config struct {
	Pointer pointer.Config // α, k, host-bitmap width
	Mode    header.Mode
	Params  header.Params
	// RuleUpdateInterval is the commodity epoch-rule constraint (§4.1.3);
	// zero = software switch (rule tracks every epoch).
	RuleUpdateInterval simtime.Time
}

// Agent runs SwitchPointer on one switch.
type Agent struct {
	sw  *netsim.Switch
	net *netsim.Network
	tp  *topo.Topology
	cfg Config

	mphTable *mph.Table
	ptr      *pointer.Structure
	emb      *header.Embedder

	// ctlMu serializes control-plane access — pointer pulls, MPH install,
	// snapshot/restore, control-store reads — so a daemon can keep serving
	// while a background bootstrap restores state. The per-packet datapath
	// stage does NOT take it: the simulation thread has the agent to
	// itself by contract (handlers are only served while the engine is
	// idle), so the lock never taxes the hot path.
	ctlMu sync.Mutex

	// ControlStore accumulates pushed top-level slots — the persistent,
	// off-chip history for offline diagnosis. Access it through
	// ControlStoreLen/Snapshot (or under the simulation thread's
	// exclusivity) when the agent may be serving.
	ControlStore []pointer.Slot

	// pulls counts analyzer pull requests served. Guarded by ctlMu; read
	// it through PullCount.
	pulls uint64
}

// New creates the agent, installs its pipeline stage on the switch, and
// schedules epoch-boundary rotation on the switch's local clock.
func New(net *netsim.Network, tp *topo.Topology, sw *netsim.Switch, cfg Config) (*Agent, error) {
	a := &Agent{sw: sw, net: net, tp: tp, cfg: cfg}
	ptr, err := pointer.New(cfg.Pointer, func(s pointer.Slot) {
		a.ControlStore = append(a.ControlStore, s)
	})
	if err != nil {
		return nil, err
	}
	a.ptr = ptr
	a.emb = &header.Embedder{
		Topo:               tp,
		Mode:               cfg.Mode,
		Params:             cfg.Params,
		RuleUpdateInterval: cfg.RuleUpdateInterval,
	}
	a.ptr.Advance(sw.Clock.EpochAt(net.Now(), cfg.Pointer.Alpha))
	sw.Pipeline = append(sw.Pipeline, a.stage)
	a.scheduleEpochTicks()
	return a, nil
}

// InstallMPH distributes a freshly built minimal perfect hash function to
// this switch (the analyzer does this whenever the end-host population
// changes permanently, §4.3).
func (a *Agent) InstallMPH(t *mph.Table) {
	a.ctlMu.Lock()
	a.mphTable = t
	a.ctlMu.Unlock()
}

// MPH returns the installed hash table (nil before InstallMPH).
func (a *Agent) MPH() *mph.Table {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	return a.mphTable
}

// Switch returns the switch this agent manages.
func (a *Agent) Switch() *netsim.Switch { return a.sw }

// Pointer returns the hierarchical pointer structure (for tests and
// accounting).
func (a *Agent) Pointer() *pointer.Structure { return a.ptr }

// Embedder returns the telemetry embedder (for accounting).
func (a *Agent) Embedder() *header.Embedder { return a.emb }

// stage is the per-packet SwitchPointer datapath.
func (a *Agent) stage(sw *netsim.Switch, p *netsim.Packet, in, out *netsim.Port, now simtime.Time) {
	a.ensureEpoch(now)
	if a.mphTable != nil {
		// ONE hash operation per packet; k parallel bit sets.
		a.ptr.Touch(a.mphTable.Lookup(uint32(p.Flow.Dst)))
	}
	a.emb.Embed(sw, p, out, now)
}

// ensureEpoch lazily advances the pointer structure to the switch's current
// local epoch (a backstop for the timer-driven rotation).
func (a *Agent) ensureEpoch(now simtime.Time) {
	e := a.sw.Clock.EpochAt(now, a.cfg.Pointer.Alpha)
	if e > a.ptr.CurrentEpoch() {
		a.ptr.Advance(e)
	}
}

// scheduleEpochTicks arranges rotation exactly at the switch's local epoch
// boundaries (which differ across switches because clocks drift).
func (a *Agent) scheduleEpochTicks() {
	alpha := a.cfg.Pointer.Alpha
	now := a.net.Now()
	local := a.sw.Clock.Local(now)
	nextLocal := (local/alpha + 1) * alpha
	firstTick := now + (nextLocal - local)
	a.net.Engine.AtWeak(firstTick, func() {
		a.ensureEpoch(a.net.Now())
		a.net.Engine.EveryWeak(alpha, func() { a.ensureEpoch(a.net.Now()) })
	})
}

// LocalEpochAt converts a true time to this switch's local epoch.
func (a *Agent) LocalEpochAt(t simtime.Time) simtime.Epoch {
	return a.sw.Clock.EpochAt(t, a.cfg.Pointer.Alpha)
}

// PullResult is the answer to an analyzer pointer pull.
type PullResult struct {
	Hosts  *bitset.Set
	Info   pointer.QueryResult
	Source string // "live", "control-store" or "none"
}

// PullPointers serves the analyzer: the union of end-host bits for the
// requested epoch range, from the finest live level that covers it, falling
// back to the control store's pushed history for older windows.
func (a *Agent) PullPointers(r simtime.EpochRange) PullResult {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	a.ensureEpoch(a.net.Now())
	a.pulls++
	bits, info := a.ptr.Query(r)
	if info.Covered {
		return PullResult{Hosts: bits, Info: info, Source: "live"}
	}
	// Offline path: merge pushed top-level history.
	merged := bits
	found := info.Slots > 0
	for _, s := range a.ControlStore {
		if s.Epochs.Overlaps(r) {
			merged.UnionWith(s.Bits)
			found = true
		}
	}
	src := "control-store"
	if !found {
		src = "none"
	}
	return PullResult{Hosts: merged, Info: info, Source: src}
}

// PullCount returns the number of pulls served, safe while the agent is
// serving.
func (a *Agent) PullCount() uint64 {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	return a.pulls
}

// SlotsAt exposes the pull-model access to raw slots at a given level.
func (a *Agent) SlotsAt(level int, r simtime.EpochRange) []pointer.Slot {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	a.pulls++
	return a.ptr.SlotsAt(level, r)
}

// ControlStoreLen returns the pushed-slot count — the switch daemon's
// /healthz resident figure, safe while a bootstrap is restoring.
func (a *Agent) ControlStoreLen() int {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	return len(a.ControlStore)
}

// Snapshot serializes the switch half of state sync under one control-plane
// hold: three sections, each a kind byte (1, 2, 3), a little-endian u32 body
// length and the body — the pointer structure, the control store
// (pointer.EncodeSlots) and the MPH (empty before InstallMPH), in order.
func (a *Agent) Snapshot() []byte {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	ptr, _ := a.ptr.Snapshot() // never errors
	var table []byte
	if a.mphTable != nil {
		table, _ = a.mphTable.MarshalBinary() // never errors
	}
	var b []byte
	for i, body := range [][]byte{ptr, pointer.EncodeSlots(a.ControlStore), table} {
		b = binary.LittleEndian.AppendUint32(append(b, byte(i+1)), uint32(len(body)))
		b = append(b, body...)
	}
	return b
}

// Restore replaces the agent's pointer structure, control store and (when
// the snapshot carries one) MPH with a Snapshot of an agent of identical
// geometry, so pointer pulls answer byte-identically to the source's. All
// three sections decode before any changes, so a failed Restore leaves the
// agent as it was. Safe while the agent serves pulls (the syncing state).
func (a *Agent) Restore(b []byte) error {
	var sections [3][]byte
	for i := range sections {
		if len(b) < 5 || b[0] != byte(i+1) || uint64(binary.LittleEndian.Uint32(b[1:])) > uint64(len(b)-5) {
			return fmt.Errorf("switchagent: restore: section %d: foreign kind or short body", i+1)
		}
		n := 5 + binary.LittleEndian.Uint32(b[1:])
		sections[i], b = b[5:n], b[n:]
	}
	if len(b) != 0 {
		return fmt.Errorf("switchagent: restore: %d bytes past the last section", len(b))
	}
	slots, err := pointer.DecodeSlots(sections[1])
	if err == nil && len(slots) > 0 && slots[0].Bits.Len() != a.cfg.Pointer.NumHosts {
		err = fmt.Errorf("control store is %d hosts wide, want %d", slots[0].Bits.Len(), a.cfg.Pointer.NumHosts)
	}
	var table *mph.Table
	if err == nil && len(sections[2]) > 0 {
		table = new(mph.Table)
		err = table.UnmarshalBinary(sections[2])
	}
	if err != nil {
		return fmt.Errorf("switchagent: restore: %w", err)
	}
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	// The structure restores last: it is all-or-nothing, and nothing after
	// it can fail.
	if err := a.ptr.Restore(sections[0]); err != nil {
		return err
	}
	a.ControlStore = slots
	if table != nil {
		a.mphTable = table
	}
	return nil
}

// MemoryBytes reports the agent's switch-memory footprint: pointer sets plus
// the installed MPH (the §6.1 quantities).
func (a *Agent) MemoryBytes() int {
	m := a.ptr.MemoryBytes()
	if a.mphTable != nil {
		m += a.mphTable.SizeBytes()
	}
	return m
}

// PointerFootprint returns the pointer structure's resident byte count and
// the agent's full switch-memory figure (pointer sets + installed MPH)
// under the control-plane lock — the scrape-side accessor behind /metrics.
func (a *Agent) PointerFootprint() (residentBytes, memoryBytes int) {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	m := a.ptr.MemoryBytes()
	if a.mphTable != nil {
		m += a.mphTable.SizeBytes()
	}
	return a.ptr.ResidentBytes(), m
}

// PushStats returns the pointer structure's sealed-slot push accounting
// (slots pushed and their encoded bytes) under the control-plane lock.
func (a *Agent) PushStats() (count, bytes uint64) {
	a.ctlMu.Lock()
	defer a.ctlMu.Unlock()
	return a.ptr.Pushes()
}

// String describes the agent.
func (a *Agent) String() string {
	return fmt.Sprintf("switchagent(%s, α=%v, k=%d)", a.sw.NodeName(), a.cfg.Pointer.Alpha, a.cfg.Pointer.K)
}

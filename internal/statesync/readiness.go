// Package statesync is the state-sync plane that turns spd daemons from
// scenario-replay servers into live state machines. It has three legs:
//
//   - Snapshot/serve: host agents expose their sharded record stores as
//     flowrec segments back to back over HTTP (GET .../snapshot, epoch-range
//     addressable, streamed shard by shard so absorption never stalls), and
//     switch agents expose pointer + MPH snapshots.
//   - Bootstrap: a fresh daemon pulls a peer's segments and loads them
//     while already serving queries, with a syncing → live readiness state
//     machine surfaced at /healthz.
//   - Cold read-back: SegmentLog is the indexed flush sink behind
//     store.Retention — evicted segments persist as files in one directory
//     with tiny manifests, and host agents transparently consult them for
//     epoch windows that have aged out of the hot set (store.ColdReader).
//     SegmentLog.Compact merges runs of small segments and SegmentLog.TierOut
//     retires aged ones; the daemon calls both from its maintenance timer.
package statesync

import (
	"context"
	"net/http"
	"sync/atomic"

	"switchpointer/internal/buildinfo"
	"switchpointer/internal/rpc"
	"switchpointer/internal/trace"
)

// State is a daemon's readiness.
type State int32

// Readiness states.
const (
	// StateSyncing: the daemon is absorbing a peer snapshot; queries are
	// served against whatever state has landed so far.
	StateSyncing State = iota
	// StateLive: bootstrap finished (or was never needed) — the daemon's
	// answers reflect complete state.
	StateLive
)

func (s State) String() string {
	if s == StateLive {
		return "live"
	}
	return "syncing"
}

// Readiness is the syncing → live state machine every spd role surfaces at
// /healthz, plus the bootstrap counters it accumulates on the way.
// All methods are safe for concurrent use.
type Readiness struct {
	state atomic.Int32

	bootSegments atomic.Int64
	bootRecords  atomic.Int64
}

// NewReadiness returns a Readiness starting in StateSyncing, or directly in
// StateLive (a daemon whose state needs no bootstrap).
func NewReadiness(live bool) *Readiness {
	r := &Readiness{}
	if live {
		r.state.Store(int32(StateLive))
	}
	return r
}

// SetLive transitions to StateLive. The transition is one-way.
func (r *Readiness) SetLive() { r.state.Store(int32(StateLive)) }

// State returns the current state.
func (r *Readiness) State() State { return State(r.state.Load()) }

// Live reports whether the daemon has reached StateLive.
func (r *Readiness) Live() bool { return r.State() == StateLive }

// AddBootstrap accounts segments/records absorbed from a peer snapshot.
func (r *Readiness) AddBootstrap(segments, records int) {
	r.bootSegments.Add(int64(segments))
	r.bootRecords.Add(int64(records))
}

// Progress returns the accumulated bootstrap counters — the scrape-side
// accessor behind the statesync /metrics families.
func (r *Readiness) Progress() (bootSegments, bootRecords int64) {
	return r.bootSegments.Load(), r.bootRecords.Load()
}

// Health is the /healthz body: the readiness state plus resident/evicted
// accounting, so `spd wait` (and operators) can gate on "live" and watch a
// bootstrap land.
type Health struct {
	State           string `json:"state"`
	ResidentRecords int    `json:"resident_records"`
	EvictedSegments int    `json:"evicted_segments"`

	BootstrapSegments int64 `json:"bootstrap_segments,omitempty"`
	BootstrapRecords  int64 `json:"bootstrap_records,omitempty"`

	// Build identifies the serving binary — version skew across a trio is
	// the first thing to rule out when daemons disagree.
	Build BuildInfo `json:"build"`
}

// BuildInfo is the /healthz build stanza.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

// HealthzHandler serves GET /healthz as a Health JSON document. stats
// supplies the role's resident-record and evicted-segment counts (nil means
// both zero — the analyzer role, which holds no telemetry). A nil rd reports
// permanently live.
func HealthzHandler(rd *Readiness, stats func() (resident, evictedSegments int)) http.Handler {
	return rpc.Endpoint(nil, "healthz", 0, func(context.Context, *rpc.Empty) (Health, []trace.Attr, error) {
		h := Health{
			State: StateLive.String(),
			Build: BuildInfo{Version: buildinfo.Version, GoVersion: buildinfo.Go()},
		}
		if rd != nil {
			h.State = rd.State().String()
			h.BootstrapSegments, h.BootstrapRecords = rd.Progress()
		}
		if stats != nil {
			h.ResidentRecords, h.EvictedSegments = stats()
		}
		return h, nil, nil
	})
}

package analyzer

import (
	"context"
	"errors"
	"slices"

	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// Analyzer coordinates the pointer directory and host agents to debug
// network events. It can be colocated with an end host or run on a separate
// controller. All switch pointer state is reached through the Directory
// backend, all host telemetry through the HostBackend seam (in-memory by
// default, HTTP via RemoteHosts); communication costs are charged to a
// virtual-time cost model standing in for the flask RPC fabric.
//
// # Concurrency and admission
//
// Run is safe for any number of concurrent calls over one Analyzer: both
// backends are required to support concurrent rounds, host stores are
// sharded, and the in-memory directory serializes per-switch pulls. The
// analyzer itself imposes no concurrency bound — in a deployment, wrap it
// in cluster.Admission (what `spd analyzer` serves), which bounds in-flight
// Runs, queues overflow FIFO (alert-driven queries ahead of switch
// investigations), and fails queued/expired queries with typed errors.
// Fields must not be mutated while Runs are in flight.
type Analyzer struct {
	Topo *topo.Topology
	Dir  Directory
	Cost rpc.CostModel

	// HostBack routes every per-host interaction of the diagnosis
	// procedures — the host-side twin of the Directory seam. New installs
	// MemoryHosts over the given agents; RemoteHosts runs the same rounds
	// over the JSON/HTTP binding so a whole diagnosis travels the wire.
	HostBack HostBackend

	// DisablePruning turns off the §4.3 search-radius reduction (ablation).
	DisablePruning bool
	// DetectionLatency is the trigger granularity charged as the
	// "problem detection" phase (paper: <1 ms; 3–4 ms for microbursts).
	DetectionLatency simtime.Time

	// Workers bounds the concurrent per-host query fan-out of every
	// diagnosis procedure. Zero selects rpc.DefaultFanOutWorkers; one
	// reproduces the fully sequential pre-fan-out behaviour. Results are
	// byte-identical for every worker count: per-host answers are merged in
	// sorted host order regardless of completion order (see rpc.FanOut).
	Workers int

	// DisableTracing turns off the per-query span recorder (the untraced
	// arm of ./benchmark's trace overhead). Tracing never alters clock
	// charges, so every virtual-time metric is byte-identical either way.
	DisableTracing bool
}

// New assembles an analyzer over the given directory backend, with
// MemoryHosts over the given host agents as its host backend.
func New(tp *topo.Topology, dir Directory, hosts map[netsim.IPv4]*hostagent.Agent, cost rpc.CostModel) *Analyzer {
	return &Analyzer{
		Topo:             tp,
		Dir:              dir,
		HostBack:         MemoryHosts{Agents: hosts},
		Cost:             cost,
		DetectionLatency: simtime.Millisecond,
	}
}

// Culprit is one flow found to have contended with the victim.
type Culprit struct {
	Flow     netsim.FlowKey
	Priority uint8
	// Bytes the culprit carried during the victim's epoch window (exact at
	// the culprit's tagging switch).
	Bytes uint64
	// Switch where the contention was established.
	Switch netsim.NodeID
	// Host whose telemetry store produced the record.
	Host netsim.IPv4
	// Overlap is the epoch range shared with the victim at Switch.
	Overlap simtime.EpochRange
}

// Kind classifies a query outcome.
type Kind string

// Outcome kinds.
const (
	KindPriorityContention Kind = "priority-contention"
	KindMicroburst         Kind = "microburst-contention"
	KindRedLights          Kind = "too-many-red-lights"
	KindCascade            Kind = "traffic-cascade"
	KindLoadImbalance      Kind = "load-imbalance"
	KindTopK               Kind = "top-k"
	KindInconclusive       Kind = "inconclusive"
)

// pullCandidates retrieves and decodes pointers for every (switch, epochs)
// tuple in ONE batched round through the directory backend
// (Directory.HostsBatch, which fans the per-switch pulls out over
// rpc.FanOut), returning per-switch candidate destination sets. Unknown
// switches are skipped; the first ctx error or backend failure is returned
// together with the partial result. The pulls that actually completed are
// charged to the clock either way, as a single round — so an alert costs
// one pointer round trip regardless of path length (asserted via
// rpc.Clock.PointerRounds).
func (a *Analyzer) pullCandidates(ctx context.Context, clock *rpc.Clock, tuples []hostagent.AlertTuple) (map[netsim.NodeID][]netsim.IPv4, error) {
	// Pointer pulls issued now parent under the pointer-retrieval span
	// charged right after the batch returns.
	ctx = clock.RemoteCtx(ctx)
	reqs := make([]SwitchEpochs, len(tuples))
	for i, tup := range tuples {
		reqs[i] = SwitchEpochs{Switch: tup.Switch, Epochs: tup.Epochs}
	}
	hosts, errs := a.Dir.HostsBatch(ctx, reqs)
	out := make(map[netsim.NodeID][]netsim.IPv4, len(tuples))
	pulled := 0
	var firstErr error
	for i := range reqs {
		if err := errs[i]; err != nil {
			if errors.Is(err, ErrUnknownSwitch) {
				continue // skip the tuple, as before
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		out[reqs[i].Switch] = hosts[i]
		pulled++
	}
	clock.PointersPulled(pulled)
	return out, firstErr
}

// pruneForVictim applies the search-radius reduction: a candidate host is
// relevant at switch sw only if traffic to it can share an egress port (an
// output queue) with the victim flow there, and it is not the victim's own
// destination.
func (a *Analyzer) pruneForVictim(sw netsim.NodeID, victim netsim.FlowKey, cands []netsim.IPv4) (kept, pruned []netsim.IPv4) {
	node, _ := a.Topo.Net.NodeByID(sw)
	if _, ok := node.(*netsim.Switch); !ok {
		return cands, nil
	}
	victimPorts := a.Topo.EgressPortsToward(sw, victim.Dst)
	for _, ip := range cands {
		if ip == victim.Dst {
			continue // the victim's own telemetry, already in hand
		}
		if a.DisablePruning || sharePort(a.Topo.EgressPortsToward(sw, ip), victimPorts) {
			kept = append(kept, ip)
		} else {
			pruned = append(pruned, ip)
		}
	}
	return kept, pruned
}

// sharesEgress reports whether traffic to a and traffic to b can leave
// switch sw through a common output port — the precondition for the two
// flows to have contended in the same queue there.
func (a *Analyzer) sharesEgress(sw netsim.NodeID, dstA, dstB netsim.IPv4) bool {
	return sharePort(a.Topo.EgressPortsToward(sw, dstA), a.Topo.EgressPortsToward(sw, dstB))
}

// sharePort reports whether two port lists have a port in common. Both are
// one switch's few equal-cost choices, so a nested scan beats any set.
func sharePort(a, b []int) bool {
	for _, p := range a {
		if slices.Contains(b, p) {
			return true
		}
	}
	return false
}

// dedupIPs merges per-switch candidate lists into one sorted unique list.
func dedupIPs(lists ...[]netsim.IPv4) []netsim.IPv4 {
	seen := make(map[netsim.IPv4]bool)
	var out []netsim.IPv4
	for _, l := range lists {
		for _, ip := range l {
			if !seen[ip] {
				seen[ip] = true
				out = append(out, ip)
			}
		}
	}
	slices.Sort(out)
	return out
}

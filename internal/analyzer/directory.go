// Package analyzer implements SwitchPointer's analyzer (§4.3): the component
// that turns a host-raised alert into a diagnosis by pulling pointers from
// switches, pruning the search radius with topology knowledge, querying the
// relevant end hosts, and correlating the returned telemetry spatially and
// temporally.
package analyzer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"switchpointer/internal/bitset"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/switchagent"
)

// ErrUnknownSwitch is returned by Directory implementations for lookups
// against a switch the directory does not manage.
var ErrUnknownSwitch = errors.New("analyzer: unknown switch")

// SwitchEpochs names one (switch, epoch range) pointer pull of a batched
// round: the per-switch element of an alert's tuple list.
type SwitchEpochs struct {
	Switch netsim.NodeID
	Epochs simtime.EpochRange
}

// Directory is the analyzer's backend seam to the switch-resident pointer
// directory (§4.1): everything the diagnosis procedures need from switch
// pointer state goes through this interface, so the in-memory implementation
// below can be swapped for the remote one (RemoteDirectory) or a sharded one
// without touching the procedures.
//
// The capabilities mirror the paper's directory-service roles:
//
//   - Hosts/HostsBatch: pull the pointers switches hold for an epoch range
//     and expand them into the end-host sets they name (the epoch-range
//     scan); HostsBatch serves a whole alert's tuple list in one concurrent
//     round instead of one pull per tuple;
//   - IndexOf/IPAt/Len/Decode: the cluster-wide minimal perfect hash between
//     end-host IPs and pointer-bitmap indices (the pointer lookup);
//   - Distribute: install the MPH on every switch after a membership change
//     (the §4.3 distribution responsibility).
//
// # Concurrency contract
//
// The analyzer's per-host query rounds fan out over a bounded worker pool
// (rpc.FanOut) and pointer pulls fan out inside HostsBatch, so an
// implementation must support:
//
//   - Hosts, HostsBatch, IndexOf, IPAt, Len, Decode: safe for concurrent
//     calls, including multiple concurrent diagnoses over one directory.
//   - Distribute: may mutate; callers serialize it against queries (it runs
//     at membership changes, never during a diagnosis).
//
// Host agents tolerate any number of concurrent queries against the same
// agent — including concurrently with the agent's own packet absorption:
// the sharded record store (store.RecordStore) serves queries under
// per-shard read locks. The former single-owner-per-round restriction is
// gone; fan-out width is purely a throughput knob.
//
// # Lock and cancellation contract
//
// Two of the interface's cross-cutting rules are behaviour tests in
// internal/cluster: every exported caller threads its ctx into
// Hosts/HostsBatch/Distribute, so cancelling a diagnosis ends the requests
// a remote implementation has in flight (TestCancelReachesTheWire, one row
// per method), and none is invoked while a mutex is held, since remote
// implementations perform HTTP rounds (TestDistributeInstallsOverlap).
type Directory interface {
	// Hosts returns the end hosts named by switch sw's pointers over the
	// epoch range, honouring ctx cancellation. It returns ErrUnknownSwitch
	// (possibly wrapped) when sw is not part of the directory.
	Hosts(ctx context.Context, sw netsim.NodeID, epochs simtime.EpochRange) ([]netsim.IPv4, error)
	// HostsBatch performs every requested pull in one concurrent round —
	// the batched form of Hosts that lets an alert's whole tuple list cost
	// one round trip. hosts[i] and errs[i] report request reqs[i]; both
	// slices always have len(reqs). Requests for switches outside the
	// directory fail their slot with ErrUnknownSwitch (possibly wrapped)
	// without affecting other slots; a cancelled ctx fails the undispatched
	// remainder with ctx.Err().
	HostsBatch(ctx context.Context, reqs []SwitchEpochs) (hosts [][]netsim.IPv4, errs []error)
	// IndexOf returns the pointer-bitmap index of an end host.
	IndexOf(ip netsim.IPv4) int
	// IPAt returns the end host at a bitmap index.
	IPAt(idx int) netsim.IPv4
	// Len returns the number of end hosts in the directory.
	Len() int
	// Decode expands a raw pointer bitmap into the end-host IPs it names.
	Decode(bits *bitset.Set) []netsim.IPv4
	// Distribute (re)installs the directory's hash table on every switch.
	// Remote implementations perform one HTTP round per switch, so ctx
	// bounds the push and must thread into it (TestCancelReachesTheWire).
	Distribute(ctx context.Context) error
}

// hostIndex is the cluster-wide minimal perfect hash between end-host IPs
// and pointer-bitmap indices, shared by every Directory backend. All methods
// are read-only after construction and safe for concurrent use.
type hostIndex struct {
	table *mph.Table
	ips   []netsim.IPv4 // index → IP
}

func newHostIndex(ips []netsim.IPv4) (hostIndex, error) {
	if len(ips) == 0 {
		return hostIndex{}, fmt.Errorf("analyzer: no end hosts")
	}
	keys := make([]uint32, len(ips))
	for i, ip := range ips {
		keys[i] = uint32(ip)
	}
	table, err := mph.Build(keys)
	if err != nil {
		return hostIndex{}, fmt.Errorf("analyzer: building MPH: %w", err)
	}
	x := hostIndex{table: table, ips: make([]netsim.IPv4, len(ips))}
	for _, ip := range ips {
		x.ips[table.Lookup(uint32(ip))] = ip
	}
	return x, nil
}

// Table returns the underlying hash table (what gets distributed to
// switches).
func (x hostIndex) Table() *mph.Table { return x.table }

// Len returns the number of end hosts.
func (x hostIndex) Len() int { return len(x.ips) }

// IndexOf returns the bitmap index of an end host.
func (x hostIndex) IndexOf(ip netsim.IPv4) int { return x.table.Lookup(uint32(ip)) }

// IPAt returns the end host at a bitmap index.
func (x hostIndex) IPAt(idx int) netsim.IPv4 { return x.ips[idx] }

// Decode expands a pointer bitmap into the end-host IPs it names, sorted.
func (x hostIndex) Decode(bits *bitset.Set) []netsim.IPv4 {
	var out []netsim.IPv4
	bits.ForEach(func(i int) bool {
		if i < len(x.ips) {
			out = append(out, x.ips[i])
		}
		return true
	})
	slices.Sort(out)
	return out
}

// MemoryDirectory is the default Directory: it owns the cluster-wide minimal
// perfect hash and reaches the simulated switch agents directly (in a real
// deployment this is the analyzer colocated with the control plane).
type MemoryDirectory struct {
	hostIndex
	switches map[netsim.NodeID]*switchagent.Agent

	// pullMu serializes pointer pulls per switch: switchagent.Agent mutates
	// pull accounting and lazily advances its epoch, so concurrent pulls
	// against one agent (overlapping diagnoses, batched rounds) must not
	// interleave. Pulls against distinct switches proceed in parallel.
	pullMu map[netsim.NodeID]*sync.Mutex
}

var _ Directory = (*MemoryDirectory)(nil)

// NewMemoryDirectory constructs the MPH over the given end-host IPs and binds
// it to the given switch agents (which may be nil for an index-only
// directory, e.g. in unit tests).
func NewMemoryDirectory(ips []netsim.IPv4, switches map[netsim.NodeID]*switchagent.Agent) (*MemoryDirectory, error) {
	idx, err := newHostIndex(ips)
	if err != nil {
		return nil, err
	}
	d := &MemoryDirectory{
		hostIndex: idx,
		switches:  switches,
		pullMu:    make(map[netsim.NodeID]*sync.Mutex, len(switches)),
	}
	for sw := range switches {
		d.pullMu[sw] = &sync.Mutex{}
	}
	return d, nil
}

// Hosts pulls switch sw's pointers for the epoch range and decodes them.
func (d *MemoryDirectory) Hosts(ctx context.Context, sw netsim.NodeID, epochs simtime.EpochRange) ([]netsim.IPv4, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ag, ok := d.switches[sw]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSwitch, sw)
	}
	res := d.pull(sw, ag, epochs)
	return d.Decode(res.Hosts), nil
}

// pull serializes PullPointers per switch.
func (d *MemoryDirectory) pull(sw netsim.NodeID, ag *switchagent.Agent, epochs simtime.EpochRange) switchagent.PullResult {
	mu := d.pullMu[sw]
	mu.Lock()
	defer mu.Unlock()
	return ag.PullPointers(epochs)
}

// fanOutSlots runs pull(i) for n request slots over the shared bounded
// worker pool (rpc.DefaultFanOutWorkers wide) and returns one error per
// slot. Slots are claimed one at a time in slot order under rpc.FanOut's
// lock, each after one ctx check, so ctx-cancellation points are as
// deterministic as a sequential loop; slots the cancellation prevented from
// dispatching fail with the context's error. Shared by both directory backends' HostsBatch and by
// RemoteDirectory.Distribute so the cancellation-tail semantics cannot
// diverge between them.
func fanOutSlots(ctx context.Context, n int, pull func(ctx context.Context, i int) error) []error {
	errs := make([]error, n)
	dispatched, cerr := rpc.FanOut(ctx, 0, n, func(ctx context.Context, i int) {
		errs[i] = pull(ctx, i)
	})
	for i := dispatched; i < n; i++ {
		errs[i] = cerr
	}
	return errs
}

// HostsBatch pulls every requested switch's pointers in one concurrent
// round over the shared bounded worker pool; per-request outcomes land in
// their own slots, so worker scheduling never influences the result.
func (d *MemoryDirectory) HostsBatch(ctx context.Context, reqs []SwitchEpochs) ([][]netsim.IPv4, []error) {
	hosts := make([][]netsim.IPv4, len(reqs))
	errs := fanOutSlots(ctx, len(reqs), func(ctx context.Context, i int) error {
		ag, ok := d.switches[reqs[i].Switch]
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownSwitch, reqs[i].Switch)
		}
		res := d.pull(reqs[i].Switch, ag, reqs[i].Epochs)
		hosts[i] = d.Decode(res.Hosts)
		return nil
	})
	return hosts, errs
}

// Distribute installs the directory's hash table on every switch (§4.3).
// The in-memory push is synchronous and does not block on ctx.
func (d *MemoryDirectory) Distribute(ctx context.Context) error {
	for _, sw := range d.switches {
		sw.InstallMPH(d.table)
	}
	return nil
}

package analyzer

import (
	"context"
	"fmt"
	"slices"

	"switchpointer/internal/netsim"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
)

// RemoteDirectory is the Directory backend for a real deployment: it owns
// the cluster-wide minimal perfect hash locally (the analyzer builds it) and
// reaches switch agents over their JSON/HTTP binding (rpc.NewSwitchHandler)
// instead of in-process calls. Pointer pulls — batched or single — and MPH
// distribution all travel the wire.
//
// HostsBatch is the reason this backend exists: against remote switches, the
// per-tuple sequential pulls the analyzer used to issue each cost a full
// network round trip, while the batch fans all of an alert's pulls out
// concurrently (rpc.FanOut) so the alert pays one round-trip time
// regardless of path length.
//
// Concurrency: all query methods are safe for concurrent use — the
// underlying rpc.HTTPClient is goroutine-safe and rpc.NewSwitchHandler
// serializes access to its (not concurrency-safe) switch agent on the
// server side. Distribute follows the Directory contract (serialized
// against queries by the caller).
type RemoteDirectory struct {
	hostIndex
	urls   map[netsim.NodeID]string // switch → base URL
	client *rpc.HTTPClient
}

var _ Directory = (*RemoteDirectory)(nil)

// NewRemoteDirectory constructs the MPH over the given end-host IPs and
// binds it to switch agents served at the given base URLs. client may be
// nil, in which case a pooled client (keep-alive transport) is used — the
// right default, since directory pulls repeat against the same switches.
func NewRemoteDirectory(ips []netsim.IPv4, switchURLs map[netsim.NodeID]string, client *rpc.HTTPClient) (*RemoteDirectory, error) {
	idx, err := newHostIndex(ips)
	if err != nil {
		return nil, err
	}
	if client == nil {
		client = rpc.NewPooledHTTPClient()
	}
	return &RemoteDirectory{hostIndex: idx, urls: switchURLs, client: client}, nil
}

// Hosts pulls one switch's pointers over HTTP and decodes them.
func (d *RemoteDirectory) Hosts(ctx context.Context, sw netsim.NodeID, epochs simtime.EpochRange) ([]netsim.IPv4, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	url, ok := d.urls[sw]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSwitch, sw)
	}
	bits, _, err := d.client.PullPointers(ctx, url, epochs)
	if err != nil {
		return nil, fmt.Errorf("analyzer: remote pull from %d: %w", sw, err)
	}
	return d.Decode(bits), nil
}

// HostsBatch pulls every requested switch concurrently in one round trip's
// wall-clock time. Slots fail independently: an unknown switch or a dead
// agent never aborts the other pulls.
func (d *RemoteDirectory) HostsBatch(ctx context.Context, reqs []SwitchEpochs) ([][]netsim.IPv4, []error) {
	hosts := make([][]netsim.IPv4, len(reqs))
	errs := fanOutSlots(ctx, len(reqs), func(ctx context.Context, i int) error {
		url, ok := d.urls[reqs[i].Switch]
		if !ok {
			return fmt.Errorf("%w: %d", ErrUnknownSwitch, reqs[i].Switch)
		}
		bits, _, err := d.client.PullPointers(ctx, url, reqs[i].Epochs)
		if err != nil {
			return fmt.Errorf("analyzer: remote pull from %d: %w", reqs[i].Switch, err)
		}
		hosts[i] = d.Decode(bits)
		return nil
	})
	return hosts, errs
}

// Distribute pushes the directory's hash table to every switch over HTTP,
// concurrently, honouring ctx. It returns the first failure in switch-ID
// order (all dispatched switches are attempted either way).
func (d *RemoteDirectory) Distribute(ctx context.Context) error {
	sws := make([]netsim.NodeID, 0, len(d.urls))
	for sw := range d.urls {
		sws = append(sws, sw)
	}
	slices.Sort(sws)
	errs := fanOutSlots(ctx, len(sws), func(ctx context.Context, i int) error {
		if err := d.client.InstallMPH(ctx, d.urls[sws[i]], d.table); err != nil {
			return fmt.Errorf("analyzer: distribute to %d: %w", sws[i], err)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package statesync

import (
	"context"
	"fmt"
	"net/http"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
	"switchpointer/internal/switchagent"
)

// Bootstrapper pulls peer snapshots into local agents — the client half of
// the snapshot/bootstrap leg. A fresh daemon uses it to absorb a live
// peer's state before switching to the ingest feed.
type Bootstrapper struct {
	// HTTP is the client to pull with (http.DefaultClient when nil).
	HTTP *http.Client
	// Readiness, when set, accumulates bootstrap accounting as segments
	// land, so /healthz shows a bootstrap progressing.
	Readiness *Readiness
}

func (b *Bootstrapper) http() *http.Client {
	if b.HTTP != nil {
		return b.HTTP
	}
	return http.DefaultClient
}

// BootstrapStore pulls the peer host agent's snapshot (GET
// peerBase/snapshot, epoch-range addressed) and installs every record into
// st via Put — safe while st is concurrently serving queries, which is
// exactly the syncing state: the daemon answers with whatever has landed so
// far. It returns how many segments and records were absorbed.
func (b *Bootstrapper) BootstrapStore(ctx context.Context, peerBase string, epochs simtime.EpochRange, st *store.RecordStore) (segments, records int, err error) {
	url := peerBase + "/snapshot"
	if epochs != store.EveryEpoch {
		url = fmt.Sprintf("%s?lo=%d&hi=%d", url, epochs.Lo, epochs.Hi)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("statesync: bootstrap: %w", err)
	}
	resp, err := b.http().Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("statesync: bootstrap %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("statesync: bootstrap %s: status %d", url, resp.StatusCode)
	}
	return ReadSegments(resp.Body, func(recs []*flowrec.Record) error {
		for _, rec := range recs {
			st.Put(rec)
		}
		if b.Readiness != nil {
			b.Readiness.AddBootstrap(1, len(recs))
		}
		return nil
	})
}

// BootstrapHost pulls the peer's full snapshot into a local host agent's
// store.
func (b *Bootstrapper) BootstrapHost(ctx context.Context, peerBase string, ag *hostagent.Agent) (segments, records int, err error) {
	return b.BootstrapStore(ctx, peerBase, store.EveryEpoch, ag.Store)
}

// BootstrapSwitch pulls the peer switch agent's snapshot (pointer structure
// + control store + MPH) and restores it into a local agent of identical
// geometry, so subsequent pointer pulls answer byte-identically to the
// source's.
func (b *Bootstrapper) BootstrapSwitch(ctx context.Context, peerBase string, ag *switchagent.Agent) error {
	snap, err := rpc.NewHTTPClient(b.HTTP).SwitchSnapshot(ctx, peerBase)
	if err != nil {
		return fmt.Errorf("statesync: bootstrap switch: %w", err)
	}
	if err := snap.Apply(ag); err != nil {
		return fmt.Errorf("statesync: bootstrap switch: %w", err)
	}
	if b.Readiness != nil {
		b.Readiness.AddBootstrap(1, 0)
	}
	return nil
}

package statesync

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"switchpointer/internal/flowrec"
	"switchpointer/internal/rpc"
	"switchpointer/internal/store"
	"switchpointer/internal/switchagent"
)

// Bootstrapper pulls peer snapshots into local agents — the client half of
// the snapshot/bootstrap leg. A fresh daemon uses it to absorb a live
// peer's state while it already serves queries.
type Bootstrapper struct {
	// HTTP is the client to pull with (http.DefaultClient when nil).
	HTTP *http.Client
	// Readiness, when set, accumulates bootstrap accounting as segments
	// land, so /healthz shows a bootstrap progressing.
	Readiness *Readiness
}

// get issues GET url and returns the body of its 200 answer.
func (b *Bootstrapper) get(ctx context.Context, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	client := b.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp.Body, nil
}

// BootstrapStore pulls the peer host agent's snapshot (GET
// peerBase/snapshot) and installs every record into
// st via Put — safe while st is concurrently serving queries, which is
// exactly the syncing state: the daemon answers with whatever has landed so
// far. It returns how many segments and records were absorbed.
func (b *Bootstrapper) BootstrapStore(ctx context.Context, peerBase string, st *store.RecordStore) (segments, records int, err error) {
	url := peerBase + "/snapshot"
	body, err := b.get(ctx, url)
	if err != nil {
		return 0, 0, fmt.Errorf("statesync: bootstrap %s: %w", url, err)
	}
	defer body.Close()
	return ReadSegments(body, func(recs []*flowrec.Record) error {
		for _, rec := range recs {
			st.Put(rec)
		}
		if b.Readiness != nil {
			b.Readiness.AddBootstrap(1, len(recs))
		}
		return nil
	})
}

// BootstrapSwitch pulls the peer switch agent's snapshot (GET
// peerBase/snapshot, at most rpc.LimitRecords bytes) into a local agent of
// identical geometry with Agent.Restore: pointer pulls then answer as the
// source's do, and a snapshot that fails to restore changes nothing.
func (b *Bootstrapper) BootstrapSwitch(ctx context.Context, peerBase string, ag *switchagent.Agent) error {
	url := peerBase + "/snapshot"
	body, err := b.get(ctx, url)
	if err != nil {
		return fmt.Errorf("statesync: bootstrap switch %s: %w", url, err)
	}
	defer body.Close()
	snap, err := io.ReadAll(io.LimitReader(body, rpc.LimitRecords+1))
	if err == nil && len(snap) > rpc.LimitRecords {
		err = fmt.Errorf("snapshot over %d bytes", rpc.LimitRecords)
	}
	if err == nil {
		err = ag.Restore(snap)
	}
	if err != nil {
		return fmt.Errorf("statesync: bootstrap switch %s: %w", url, err)
	}
	if b.Readiness != nil {
		b.Readiness.AddBootstrap(1, 0)
	}
	return nil
}

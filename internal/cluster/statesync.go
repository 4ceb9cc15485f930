package cluster

import (
	"context"
	"fmt"

	"switchpointer/internal/scenario"
	"switchpointer/internal/statesync"
)

// BootstrapHosts pulls every host agent's snapshot from a live peer host
// daemon at peerRoot (the root a HostMux serves, e.g. http://addr) into
// tb's agents, in sorted-IP order so progress accounting is deterministic.
// It returns total segments and records absorbed. The testbed may already
// be serving queries — that is exactly the syncing state.
func BootstrapHosts(ctx context.Context, b *statesync.Bootstrapper, peerRoot string, tb *scenario.Testbed) (segments, records int, err error) {
	ips, agents := sortedHostAgents(tb)
	for i, ag := range agents {
		segs, recs, err := b.BootstrapHost(ctx, peerRoot+"/hosts/"+ips[i], ag)
		segments += segs
		records += recs
		if err != nil {
			return segments, records, fmt.Errorf("cluster: bootstrap host %s: %w", ips[i], err)
		}
	}
	return segments, records, nil
}

// BootstrapSwitches pulls every switch agent's snapshot (pointer structure,
// control store, MPH) from a live peer switch daemon at peerRoot into tb's
// agents, in sorted-ID order.
func BootstrapSwitches(ctx context.Context, b *statesync.Bootstrapper, peerRoot string, tb *scenario.Testbed) error {
	ids, agents := sortedSwitchAgents(tb)
	for i, ag := range agents {
		if err := b.BootstrapSwitch(ctx, peerRoot+"/switches/"+ids[i], ag); err != nil {
			return fmt.Errorf("cluster: bootstrap switch %s: %w", ids[i], err)
		}
	}
	return nil
}

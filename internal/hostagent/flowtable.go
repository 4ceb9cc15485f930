package hostagent

import (
	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
	"switchpointer/internal/store"
)

// flowState is everything the packet path keeps for one received flow, so a
// packet resolves its flow once: its last few buckets of arrival bytes (all
// the throughput trigger reads, not the flow's whole history), its decoder
// path memo, its store record handle and its trigger's last alert.
//
// The path memo holds the flow's last (src, dst, link) path. It is valid
// only because routes are static once traffic flows — every route
// (netsim.Switch.SetRoute, RouteOverride) is installed before the first
// packet — the condition the decoder's shared memo already rests on.
type flowState struct {
	flow      netsim.FlowKey
	rate      rateWindow
	path      header.PathMemo
	rec       store.Handle
	lastAlert simtime.Time
	alerted   bool // lastAlert is set
}

// smallTable is how many flows a table scans before it keeps an index map:
// most receivers see a flow or two, and a map costs them more than a scan.
const smallTable = 8

// flowTable is an agent's flowStates: last is the last one hit, flows holds
// every one in arrival order (the trigger scan's order), and index maps a
// flow to its state once the table outgrows smallTable.
type flowTable struct {
	last  *flowState
	flows []*flowState
	index map[netsim.FlowKey]*flowState
}

// get returns flow's state, created on its first packet. A flow's packets
// usually arrive back to back, and then get looks nothing up.
func (ft *flowTable) get(flow netsim.FlowKey) *flowState {
	if fs := ft.last; fs != nil && fs.flow == flow {
		return fs
	}
	return ft.lookup(flow)
}

// lookup is get's miss: it finds or adds flow's state and makes it the last.
func (ft *flowTable) lookup(flow netsim.FlowKey) *flowState {
	fs := ft.find(flow)
	if fs == nil {
		fs = ft.add(flow)
	}
	ft.last = fs
	return fs
}

// find returns flow's state, or nil.
func (ft *flowTable) find(flow netsim.FlowKey) *flowState {
	if ft.index != nil {
		return ft.index[flow]
	}
	for _, fs := range ft.flows {
		if fs.flow == flow {
			return fs
		}
	}
	return nil
}

// add appends a new state for flow; a table outgrowing smallTable gets its
// index here.
func (ft *flowTable) add(flow netsim.FlowKey) *flowState {
	fs := &flowState{flow: flow}
	ft.flows = append(ft.flows, fs)
	if ft.index != nil {
		ft.index[flow] = fs
	} else if len(ft.flows) > smallTable {
		ft.index = make(map[netsim.FlowKey]*flowState, len(ft.flows))
		for _, fs := range ft.flows {
			ft.index[fs.flow] = fs
		}
	}
	return fs
}

// Package scenario assembles complete SwitchPointer testbeds — network,
// topology, switch datapaths, host agents, analyzer — and provides the
// paper's §2/§5 workloads as reusable, parameterized scenarios.
package scenario

import (
	"context"
	"fmt"

	"switchpointer/internal/analyzer"
	"switchpointer/internal/header"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/rpc"
	"switchpointer/internal/simtime"
	"switchpointer/internal/switchagent"
	"switchpointer/internal/topo"
)

// Options configures a testbed. Zero values select the paper's defaults.
type Options struct {
	Alpha simtime.Time // epoch size (default 10 ms)
	K     int          // pointer hierarchy levels (default 3)
	Eps   simtime.Time // clock-drift bound (default α)
	Delta simtime.Time // max one-hop delay (default 2α)

	Mode  header.Mode // telemetry embedding mode
	Queue netsim.QueueKind
	// SwitchBufBytes sizes each output queue (default 4 MB: the scenarios
	// need room for both a TCP standing queue and multi-MB bursts).
	SwitchBufBytes int

	Cost    rpc.CostModel    // analyzer communication costs
	HostCfg hostagent.Config // trigger engine tuning

	// RuleUpdateInterval models the commodity epoch-rule floor (§4.1.3).
	RuleUpdateInterval simtime.Time

	// ClockSeed drives deterministic switch clock-offset assignment.
	ClockSeed int64

	// PointerBackend selects the per-slot pointer-set implementation on
	// every switch (zero value: exact-adaptive). PointerBloomBits and
	// PointerBloomHashes tune the bloom backend (zero: 16384 bits / 4
	// hashes); pointer.Config.Validate rejects them for other backends.
	PointerBackend     pointer.Backend
	PointerBloomBits   int
	PointerBloomHashes int
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 10 * simtime.Millisecond
	}
	if o.K == 0 {
		o.K = 3
	}
	if o.Eps == 0 {
		o.Eps = o.Alpha
	}
	if o.Delta == 0 {
		o.Delta = 2 * o.Alpha
	}
	if o.SwitchBufBytes == 0 {
		o.SwitchBufBytes = 4 << 20
	}
	if o.Cost == (rpc.CostModel{}) {
		o.Cost = rpc.DefaultCostModel()
	}
	return o
}

// Params returns the header parameters implied by the options.
func (o Options) Params() header.Params {
	return header.Params{Alpha: o.Alpha, Eps: o.Eps, Delta: o.Delta}
}

// Testbed is a fully assembled SwitchPointer deployment on the simulator.
type Testbed struct {
	Opt  Options
	Net  *netsim.Network
	Topo *topo.Topology

	Decoder      *header.Decoder
	SwitchAgents map[netsim.NodeID]*switchagent.Agent
	HostAgents   map[netsim.IPv4]*hostagent.Agent
	Analyzer     *analyzer.Analyzer

	// Alerts collects every trigger raised by any host, in order.
	Alerts []hostagent.Alert

	bus *hostagent.Bus
}

// BuildFunc constructs a topology on a fresh network.
type BuildFunc func(net *netsim.Network, cfg topo.Config) *topo.Topology

// NewTestbed wires a full deployment: topology, per-switch SwitchPointer
// datapaths + agents, per-host PathDump-extended agents with triggers armed,
// the cluster MPH directory, and the analyzer.
func NewTestbed(build BuildFunc, opt Options) (*Testbed, error) {
	opt = opt.withDefaults()
	net := netsim.New()
	net.NewSwitchQueue = func() netsim.Queue { return netsim.NewQueue(opt.Queue, opt.SwitchBufBytes) }
	tp := build(net, topo.Config{Eps: opt.Eps, Seed: opt.ClockSeed})

	tb := &Testbed{
		Opt:          opt,
		Net:          net,
		Topo:         tp,
		SwitchAgents: make(map[netsim.NodeID]*switchagent.Agent),
		HostAgents:   make(map[netsim.IPv4]*hostagent.Agent),
		bus:          hostagent.NewBus(),
	}
	params := opt.Params()
	tb.Decoder = &header.Decoder{Topo: tp, Mode: opt.Mode, Params: params}

	ips := make([]netsim.IPv4, 0, len(tp.Hosts()))
	for _, h := range tp.Hosts() {
		ips = append(ips, h.IP())
	}
	for _, sw := range tp.Switches() {
		ag, err := switchagent.New(net, tp, sw, switchagent.Config{
			Pointer: pointer.Config{
				Alpha: opt.Alpha, K: opt.K, NumHosts: len(ips),
				Backend:     opt.PointerBackend,
				BloomBits:   opt.PointerBloomBits,
				BloomHashes: opt.PointerBloomHashes,
			},
			Mode:               opt.Mode,
			Params:             params,
			RuleUpdateInterval: opt.RuleUpdateInterval,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: switch %s: %w", sw.NodeName(), err)
		}
		tb.SwitchAgents[sw.NodeID()] = ag
	}
	for _, h := range tp.Hosts() {
		ag := hostagent.New(net, h, tb.Decoder, opt.HostCfg)
		ag.OnAlert = func(a hostagent.Alert) {
			tb.Alerts = append(tb.Alerts, a)
			tb.bus.Publish(a)
		}
		ag.StartTriggers()
		tb.HostAgents[h.IP()] = ag
	}
	dir, err := analyzer.NewMemoryDirectory(ips, tb.SwitchAgents)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	tb.Analyzer = analyzer.New(tp, dir, tb.HostAgents, opt.Cost)
	if err := dir.Distribute(context.Background()); err != nil {
		return nil, fmt.Errorf("scenario: distributing MPH: %w", err)
	}
	return tb, nil
}

// Host returns a topology host by name, panicking when absent (scenario
// wiring errors are programming errors).
func (tb *Testbed) Host(name string) *netsim.Host {
	h, ok := tb.Topo.HostByName(name)
	if !ok {
		panic(fmt.Sprintf("scenario: no host %q", name))
	}
	return h
}

// Switch returns a topology switch by name, panicking when absent.
func (tb *Testbed) Switch(name string) *netsim.Switch {
	s, ok := tb.Topo.SwitchByName(name)
	if !ok {
		panic(fmt.Sprintf("scenario: no switch %q", name))
	}
	return s
}

// AlertFor returns the first collected alert for a flow. It is the
// poll-style compatibility shim over the alert log; prefer Subscribe for
// event-driven consumption.
func (tb *Testbed) AlertFor(flow netsim.FlowKey) (hostagent.Alert, bool) {
	for _, a := range tb.Alerts {
		if a.Flow == flow {
			return a, true
		}
	}
	return hostagent.Alert{}, false
}

// Subscribe registers an alert subscriber: every alert any host raises from
// now on that matches the filter is delivered on the returned buffered
// channel. Multiple subscribers each receive their own copy; a subscriber
// that stops draining loses alerts rather than blocking the simulation. The
// channel is closed when the testbed is Closed.
func (tb *Testbed) Subscribe(f hostagent.AlertFilter) <-chan hostagent.Alert {
	return tb.bus.Subscribe(f)
}

// SubscribeBuffered is Subscribe with an explicit channel capacity.
func (tb *Testbed) SubscribeBuffered(f hostagent.AlertFilter, buf int) <-chan hostagent.Alert {
	return tb.bus.SubscribeBuffered(f, buf)
}

// AlertsDropped reports alert deliveries lost to full subscriber buffers.
func (tb *Testbed) AlertsDropped() uint64 { return tb.bus.Dropped() }

// Close tears the testbed down: every subscription channel is closed (after
// draining) and further alerts go only to the Alerts log. Close is
// idempotent.
func (tb *Testbed) Close() { tb.bus.Close() }

// Run advances the testbed to absolute virtual time t and returns the final
// virtual time. Calling Run with a time at or before the current one is a
// no-op (the clock never moves backwards), so repeated Run calls past the
// end of a scenario are idempotent.
func (tb *Testbed) Run(t simtime.Time) simtime.Time {
	// >= so events scheduled at exactly the current time still fire.
	if t >= tb.Net.Now() {
		tb.Net.RunUntil(t)
	}
	return tb.Net.Now()
}

// Package switchpointer is a from-scratch Go reproduction of SwitchPointer
// (Tammana, Agarwal, Lee — "Distributed Network Monitoring and Debugging
// with SwitchPointer", NSDI 2018).
//
// SwitchPointer integrates end-host telemetry collection (PathDump-style
// agents) with in-network visibility by using switch memory as a *directory
// service*: each switch maintains, per epoch, a hierarchical set of pointers
// (bitmaps over a minimal perfect hash of end-host addresses) to the hosts
// it forwarded packets to. When a host triggers a spurious event, the
// analyzer uses those pointers to contact exactly the hosts holding relevant
// telemetry, instead of everyone.
//
// # The monitoring service API
//
// The facade is organized around three pillars:
//
//   - Unified queries. Every diagnosis procedure is a Query value —
//     ContentionQuery, RedLightsQuery, CascadeQuery, ImbalanceQuery,
//     TopKQuery — executed through one dispatch point,
//     Analyzer.Run(ctx, query), which returns the unified Report envelope
//     (outcome kind, culprits, payloads, consulted-host set, virtual-time
//     cost breakdown). Queries honour context cancellation and deadlines at
//     every phase boundary; a cancelled query returns the partial Report
//     with the cost actually incurred, plus ctx.Err().
//
//   - Streaming alerts. Testbed.Subscribe(AlertFilter) returns a buffered
//     channel delivering every matching host-raised alert; multiple
//     subscribers each get their own copy, and Testbed.Close tears all
//     subscriptions down. The poll-style AlertFor remains as a shim over
//     the alert log.
//
//   - Pluggable directory. The analyzer reaches switch pointer state only
//     through the analyzer.Directory interface (pointer lookup, epoch-range
//     scan, MPH distribution). The in-memory implementation is the default;
//     the seam exists for sharded/remote backends.
//
// # Quick start
//
//	tb, err := switchpointer.New(switchpointer.Dumbbell(4, 4),
//		switchpointer.WithQueueDiscipline(switchpointer.QueuePriority))
//	if err != nil { ... }
//	alerts := tb.Subscribe(switchpointer.AlertFilter{}) // all alerts
//	// inject traffic with switchpointer.StartTCP / StartUDP ...
//	tb.Run(110 * switchpointer.Millisecond)
//	alert := <-alerts
//	rep, err := tb.Analyzer.Run(ctx, switchpointer.ContentionQuery{Alert: alert})
//	fmt.Println(rep.Kind, rep.Conclusion)
//	tb.Close()
//
// Construction takes functional options (WithEpoch, WithLevels,
// WithQueueDiscipline, WithCostModel, ...); the plain Options struct and
// NewTestbed keep working for callers that prefer it.
//
// Underneath the facade:
//
//   - a deterministic discrete-event datacenter simulator (switches with
//     strict-priority/FIFO queues, links, hosts, TCP/UDP transports);
//   - fat-tree / leaf-spine / chain / dumbbell topologies with
//     CherryPick-style key-link path reconstruction;
//   - the switch datapath: one MPH lookup + k-level pointer update +
//     telemetry tag push per packet, with epoch rotation and top-level
//     pushes to the control plane;
//   - host agents decoding telemetry into flow records, millisecond
//     triggers, and distributed query executors;
//   - the analyzer with the paper's diagnosis procedures: priority/
//     microburst contention, too-many-red-lights, traffic cascades, load
//     imbalance, and top-k queries with a PathDump baseline.
//
// The runnable examples under examples/ and the experiment harness under
// cmd/spbench exercise every part of this API.
package switchpointer

import (
	"switchpointer/internal/analyzer"
	"switchpointer/internal/header"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/rpc"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/transport"
)

// Re-exported core types. The facade keeps one import path for downstream
// users while the implementation stays in focused internal packages.
type (
	// Time is virtual time in nanoseconds.
	Time = simtime.Time
	// Epoch identifies one switch epoch.
	Epoch = simtime.Epoch
	// EpochRange is a closed epoch interval.
	EpochRange = simtime.EpochRange

	// IPv4 is an end-host address.
	IPv4 = netsim.IPv4
	// FlowKey is the 5-tuple flow identity.
	FlowKey = netsim.FlowKey
	// Packet is a simulated packet.
	Packet = netsim.Packet
	// Network is the simulated fabric.
	Network = netsim.Network
	// Host is a simulated end host.
	Host = netsim.Host
	// Switch is a simulated switch.
	Switch = netsim.Switch
	// QueueKind selects a switch queue discipline.
	QueueKind = netsim.QueueKind

	// PointerBackend selects the per-slot pointer-set implementation.
	PointerBackend = pointer.Backend

	// Topology is the structural view used for routing/reconstruction.
	Topology = topo.Topology

	// Options configures a testbed (epoch size α, levels k, drift bound ε,
	// queue discipline, RPC cost model, ...). Prefer the functional options
	// accepted by New; Options remains for struct-literal construction.
	Options = scenario.Options
	// Testbed is a fully wired SwitchPointer deployment.
	Testbed = scenario.Testbed

	// Alert is a host-raised trigger event.
	Alert = hostagent.Alert
	// AlertFilter selects which alerts a Testbed.Subscribe subscription
	// receives; the zero filter matches everything.
	AlertFilter = hostagent.AlertFilter
	// HostAgent is the end-host telemetry component.
	HostAgent = hostagent.Agent
	// HostConfig tunes the host agents' trigger engines.
	HostConfig = hostagent.Config

	// Analyzer executes queries (Analyzer.Run).
	Analyzer = analyzer.Analyzer
	// Query is one self-describing analyzer request.
	Query = analyzer.Query
	// Report is the unified answer envelope every query kind returns.
	Report = analyzer.Report
	// ContentionQuery debugs a throughput-drop or timeout alert (§5.1).
	ContentionQuery = analyzer.ContentionQuery
	// RedLightsQuery debugs accumulated per-switch degradation (§5.2).
	RedLightsQuery = analyzer.RedLightsQuery
	// CascadeQuery chases causality backwards from an alert (§5.3).
	CascadeQuery = analyzer.CascadeQuery
	// ImbalanceQuery investigates uneven egress utilization (§5.4).
	ImbalanceQuery = analyzer.ImbalanceQuery
	// TopKQuery runs the distributed top-k flows query (§6.2).
	TopKQuery = analyzer.TopKQuery
	// Directory is the pluggable pointer-directory backend seam.
	Directory = analyzer.Directory
	// Culprit is one contending flow in a report.
	Culprit = analyzer.Culprit

	// TCPConfig and UDPConfig describe workload flows.
	TCPConfig = transport.TCPConfig
	UDPConfig = transport.UDPConfig
	// Meter samples throughput/gaps.
	Meter = transport.Meter

	// CostModel is the analyzer RPC cost model.
	CostModel = rpc.CostModel

	// HeaderMode selects commodity double-tagging or INT.
	HeaderMode = header.Mode
)

// Time units.
const (
	Nanosecond  = simtime.Nanosecond
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Header modes.
const (
	ModeCommodity = header.ModeCommodity
	ModeINT       = header.ModeINT
)

// Queue disciplines.
const (
	QueueFIFO     = netsim.QueueFIFO
	QueuePriority = netsim.QueuePriority
)

// Pointer-slot backends (see WithPointerBackend).
const (
	// PointerAdaptive (the default) stores slots sparsely and promotes to a
	// dense bitmap past a density threshold; exact, occupancy-proportional.
	PointerAdaptive = pointer.BackendAdaptive
	// PointerDense is the paper's fixed dense-bitmap layout: exact, with
	// memory independent of occupancy (the accuracy/memory oracle).
	PointerDense = pointer.BackendDense
	// PointerBloom stores slots as fixed-size bloom filters: constant
	// memory, one-sided error (candidate supersets, never a missed host).
	PointerBloom = pointer.BackendBloom
)

// Report outcome kinds.
const (
	KindPriorityContention = analyzer.KindPriorityContention
	KindMicroburst         = analyzer.KindMicroburst
	KindRedLights          = analyzer.KindRedLights
	KindCascade            = analyzer.KindCascade
	KindLoadImbalance      = analyzer.KindLoadImbalance
	KindTopK               = analyzer.KindTopK
	KindInconclusive       = analyzer.KindInconclusive
)

// Alert kinds.
const (
	AlertThroughputDrop = hostagent.AlertThroughputDrop
	AlertTimeout        = hostagent.AlertTimeout
)

// Top-k query modes.
const (
	ModeSwitchPointer = analyzer.ModeSwitchPointer
	ModePathDump      = analyzer.ModePathDump
)

// IP builds an IPv4 address from octets.
func IP(a, b, c, d byte) IPv4 { return netsim.IP(a, b, c, d) }

// DefaultCostModel returns RPC costs calibrated to the paper's measurements.
func DefaultCostModel() CostModel { return rpc.DefaultCostModel() }

// BuildFunc constructs a topology on a fresh network (use the shipped
// builders below or provide your own).
type BuildFunc = scenario.BuildFunc

// Dumbbell returns a builder for two switches with hosts on both sides and
// one shared fabric link — the "too much traffic" testbed.
func Dumbbell(nLeft, nRight int) BuildFunc {
	return func(net *netsim.Network, cfg topo.Config) *topo.Topology {
		return topo.Dumbbell(net, nLeft, nRight, cfg)
	}
}

// Chain returns a builder for a line of switches with hostsPer[i] hosts each
// — the red-lights / cascades testbed.
func Chain(hostsPer ...int) BuildFunc {
	return func(net *netsim.Network, cfg topo.Config) *topo.Topology {
		return topo.Chain(net, hostsPer, cfg)
	}
}

// LeafSpine returns a builder for a 2-tier clos.
func LeafSpine(nLeaf, nSpine, hostsPerLeaf int) BuildFunc {
	return func(net *netsim.Network, cfg topo.Config) *topo.Topology {
		return topo.LeafSpine(net, nLeaf, nSpine, hostsPerLeaf, cfg)
	}
}

// FatTree returns a builder for a k-ary fat-tree (k even).
func FatTree(k int) BuildFunc {
	return func(net *netsim.Network, cfg topo.Config) *topo.Topology {
		return topo.FatTree(net, k, cfg)
	}
}

// ParallelLinks returns a builder for a dumbbell with parallel fabric links
// — the load-imbalance testbed.
func ParallelLinks(nLeft, nRight, nLinks int) BuildFunc {
	return func(net *netsim.Network, cfg topo.Config) *topo.Topology {
		return topo.ParallelLinks(net, nLeft, nRight, nLinks, cfg)
	}
}

// New assembles a complete SwitchPointer deployment on the given topology —
// per-switch datapaths and agents, per-host agents with triggers armed, the
// MPH directory distributed, and an analyzer — configured by functional
// options. With no options every parameter takes the paper's default.
func New(build BuildFunc, opts ...Option) (*Testbed, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return scenario.NewTestbed(build, o)
}

// NewTestbed assembles a deployment from an explicit Options struct. New is
// the functional-options equivalent.
func NewTestbed(build BuildFunc, opt Options) (*Testbed, error) {
	return scenario.NewTestbed(build, opt)
}

// StartTCP starts a Reno-style TCP flow between two hosts.
func StartTCP(net *Network, src, dst *Host, cfg TCPConfig) (*transport.TCPSender, *transport.TCPReceiver) {
	return transport.StartTCP(net, src, dst, cfg)
}

// StartUDP starts a constant-rate UDP flow from a host.
func StartUDP(net *Network, src *Host, cfg UDPConfig) *transport.UDPSource {
	return transport.StartUDP(net, src, cfg)
}

// NewMeter creates a throughput/gap meter with the given bucket width.
func NewMeter(interval Time) *Meter { return transport.NewMeter(interval) }

package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"switchpointer/internal/header"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
	"switchpointer/internal/switchagent"
	"switchpointer/internal/topo"
)

const (
	benchHosts  = 100_000
	frameStride = 4096
	dstOffset   = 30 // IPv4 dst within a classic Ethernet+IP header

	// Each column runs fig9Rounds rounds of fig9Packets packets. Every round
	// runs the three columns in turn, starting one column later than the
	// last, so drift and cache order hit them alike; a burst of neighbour
	// load spoils a few short rounds, not a column's median.
	fig9Rounds  = 31
	fig9Packets = 50_000
)

// PacketCosts is Fig 9's measurement in ns/packet: the baseline alone, and
// the baseline followed by the SwitchPointer stage at k = 1 and k = 5 —
// plus the (link, epoch) tag pairs the stages pushed per packet.
type PacketCosts struct {
	Baseline, K1, K5, TagPairs float64
}

// datapath is the Fig 9 fixture: the baseline's frames and routes over 100 K
// destinations, and two switch agents (k = 1, k = 5) installed on SL of a
// one-host-a-side dumbbell, each called through the stage it appended to
// SL's pipeline.
type datapath struct {
	routes map[uint32]int32
	frames [][]byte
	sink   uint64
	sw     *netsim.Switch
	out    *netsim.Port
	pkt    *netsim.Packet
	agents [2]*switchagent.Agent
	stages [2]netsim.PipelineFunc
}

func newDatapath() (*datapath, error) {
	d := &datapath{routes: make(map[uint32]int32, benchHosts), frames: make([][]byte, frameStride)}
	keys := make([]uint32, benchHosts)
	for i := range keys {
		keys[i] = 10<<24 + uint32(i)
		d.routes[keys[i]] = int32(i % 48) // 48-port switch
	}
	for i := range d.frames {
		d.frames[i] = make([]byte, 128)
		binary.BigEndian.PutUint32(d.frames[i][dstOffset:], keys[(i*2654435761)%benchHosts])
	}
	table, err := mph.Build(keys)
	if err != nil {
		return nil, err
	}
	net := netsim.New()
	tp := topo.Dumbbell(net, 1, 1, topo.Config{})
	d.sw, d.pkt = tp.Switches()[0], netsim.AllocPacket()
	d.out = d.sw.Port(0) // the SL–SR link, wired before the hosts: a key-link egress
	alpha := 10 * simtime.Millisecond
	for i, k := range []int{1, 5} {
		d.agents[i], err = switchagent.New(net, tp, d.sw, switchagent.Config{
			Pointer: pointer.Config{Alpha: alpha, K: k, NumHosts: benchHosts, Backend: pointer.BackendDense},
			Mode:    header.ModeCommodity,
			Params:  header.Params{Alpha: alpha},
		})
		if err != nil {
			return nil, err
		}
		d.agents[i].InstallMPH(table)
		d.stages[i] = d.sw.Pipeline[len(d.sw.Pipeline)-1]
	}
	return d, nil
}

// stepBaseline processes one packet through the vanilla pipeline.
func (d *datapath) stepBaseline(i int) {
	fr := d.frames[i&(frameStride-1)]
	dst := binary.BigEndian.Uint32(fr[dstOffset:])
	// IP header checksum validation (10 16-bit words).
	var sum uint32
	for off := 14; off < 34; off += 2 {
		sum += uint32(binary.BigEndian.Uint16(fr[off:]))
	}
	// Calibrated softswitch base cost: touch the first 96 bytes the way a
	// DPDK rx/tx path and OVS flow-key extraction would.
	var mix uint64
	for off := 0; off < 96; off += 8 {
		mix = mix*1099511628211 ^ binary.LittleEndian.Uint64(fr[off:])
	}
	port := d.routes[dst]
	d.sink += uint64(sum) + uint64(port) + mix&1
}

// withStage returns agent a's column: the baseline, then the agent's stage
// on one pooled packet leaving SL's fabric port, its Dst cycling the 100 K
// destinations.
func (d *datapath) withStage(a int) func(i int) {
	stage := d.stages[a]
	return func(i int) {
		d.stepBaseline(i)
		d.pkt.Flow.Dst = netsim.IPv4(10<<24 + i%benchHosts)
		d.pkt.NTag = 0
		stage(d.sw, d.pkt, nil, d.out, 0)
	}
}

// nsPerPacket times n packets through step.
func nsPerPacket(step func(i int), n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		step(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// MeasurePerPacket is Fig 9's one measurement — fig9, ablation-packetmix and
// the root BenchmarkFig9PerPacket all read it: a warm-up round, then
// fig9Rounds interleaved rounds, each column reported as its median round.
func MeasurePerPacket() (PacketCosts, error) {
	d, err := newDatapath()
	if err != nil {
		return PacketCosts{}, err
	}
	defer d.pkt.Release()
	cols := [3]func(i int){d.stepBaseline, d.withStage(0), d.withStage(1)}
	var ns [3][fig9Rounds + 1]float64
	for r := range ns[0] {
		for j := range cols {
			c := (r + j) % len(cols)
			ns[c][r] = nsPerPacket(cols[c], fig9Packets)
		}
	}
	var med [3]float64
	for c := range ns {
		sort.Float64s(ns[c][1:])
		med[c] = ns[c][1+fig9Rounds/2]
	}
	pushed := d.agents[0].Embedder().TagsPushed + d.agents[1].Embedder().TagsPushed
	return PacketCosts{Baseline: med[0], K1: med[1], K5: med[2],
		TagPairs: float64(pushed) / float64(2*len(ns[0])*fig9Packets)}, nil
}

// fig9Sizes is the packet-size sweep (the paper shows 64, 128, ≥256).
var fig9Sizes = []int{64, 128, 256, 512, 1024, 1500}

// lineRateGbps is the modelled NIC rate of the Fig 9 testbed.
const lineRateGbps = 10.0

// gbpsAt converts a per-packet cost into achievable throughput at size p,
// capped at line rate.
func gbpsAt(nsPerPkt float64, p int) float64 {
	return math.Min(float64(p*8)/nsPerPkt, lineRateGbps)
}

// Fig9 regenerates Figure 9: datapath throughput vs packet size on one core
// with 100 K distinct destination IPs (the paper: OVS-DPDK, one 3.1 GHz
// core), at min(packets/s × size × 8, line rate) from MeasurePerPacket.
// SwitchPointer's columns time the netsim.PipelineFunc switchagent.New
// installs — epoch check, ONE MPH lookup, k pointer-bit writes, the tag push
// — after the baseline. The "vanilla OVS" baseline is a documented stand-in
// (header parse, checksum, route lookup, a 96-byte touch pass): the
// simulator has no softswitch whose cost compares to DPDK's.
func Fig9() (*Result, error) {
	c, err := MeasurePerPacket()
	if err != nil {
		return nil, err
	}
	r := &Result{ID: "fig9", Title: "datapath throughput vs packet size (Fig 9)"}
	tab := Table{
		Title: "throughput (Gbps), 10GE line rate, 100K destinations, one core",
		Cols:  []string{"pkt size (B)", "OVS baseline", "SwitchPointer k=1", "SwitchPointer k=5"},
	}
	for _, p := range fig9Sizes {
		tab.Rows = append(tab.Rows, []string{fmt.Sprint(p), f(gbpsAt(c.Baseline, p)), f(gbpsAt(c.K1, p)), f(gbpsAt(c.K5, p))})
	}
	r.AddTable(tab)
	r.AddNote("per-packet cost, median of %d interleaved rounds: baseline %.1f ns, k=1 %.1f ns (stage %.1f), k=5 %.1f ns (stage %.1f); k=5/k=1 %.2f; %.2f tag pairs/packet; 256 B line rate allows 204.8 ns",
		fig9Rounds, c.Baseline, c.K1, c.K1-c.Baseline, c.K5, c.K5-c.Baseline, c.K5/c.K1, c.TagPairs)
	r.AddNote("paper: line rate at ≥256 B; ≈22%% below baseline at 128 B; k=1 vs k=5 nearly identical (one hash op regardless of k)")
	return r, nil
}

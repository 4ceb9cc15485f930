package switchagent

import (
	"bytes"
	"encoding/binary"
	"testing"

	"switchpointer/internal/header"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
	"switchpointer/internal/transport"
)

func agentConfig(n int) Config {
	alpha := 10 * simtime.Millisecond
	return Config{
		Pointer: pointer.Config{Alpha: alpha, K: 3, NumHosts: n},
		Mode:    header.ModeCommodity,
		Params:  header.Params{Alpha: alpha, Eps: alpha, Delta: 2 * alpha},
	}
}

// build wires a dumbbell with agents on both switches and an MPH over all
// host IPs.
func build(t *testing.T, eps simtime.Time) (*netsim.Network, *topo.Topology, map[netsim.NodeID]*Agent) {
	t.Helper()
	net := netsim.New()
	tp := topo.Dumbbell(net, 2, 2, topo.Config{Eps: eps, Seed: 3})
	hosts := tp.Hosts()
	keys := make([]uint32, len(hosts))
	for i, h := range hosts {
		keys[i] = uint32(h.IP())
	}
	table, err := mph.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	agents := make(map[netsim.NodeID]*Agent)
	for _, sw := range tp.Switches() {
		cfg := agentConfig(len(hosts))
		cfg.Params.Eps = eps
		ag, err := New(net, tp, sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ag.InstallMPH(table)
		agents[sw.NodeID()] = ag
	}
	return net, tp, agents
}

func TestDatapathTouchesPointers(t *testing.T) {
	net, tp, agents := build(t, 0)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow: flow, RateBps: 100_000_000, Start: 0, Duration: 15 * simtime.Millisecond})
	net.RunUntil(40 * simtime.Millisecond)

	sl, _ := tp.SwitchByName("SL")
	ag := agents[sl.NodeID()]
	if ag.Pointer().Touches() == 0 {
		t.Fatalf("no pointer touches")
	}
	// The destination must appear in the pointers for epochs 0–1 (first 15ms).
	res := ag.PullPointers(simtime.EpochRange{Lo: 0, Hi: 1})
	idx := ag.MPH().Lookup(uint32(dst.IP()))
	if !res.Hosts.Get(idx) {
		t.Fatalf("destination bit not set in pulled pointers")
	}
	// Non-destination hosts must not be flagged.
	other, _ := tp.HostByName("R2")
	if res.Hosts.Get(ag.MPH().Lookup(uint32(other.IP()))) {
		t.Fatalf("uninvolved host flagged")
	}
	if res.Source != "live" {
		t.Fatalf("source = %q", res.Source)
	}
}

func TestEpochRotationFollowsLocalClock(t *testing.T) {
	net, tp, agents := build(t, 8*simtime.Millisecond)
	_ = tp
	net.RunUntil(100 * simtime.Millisecond)
	for _, ag := range agents {
		wantEpoch := ag.Switch().Clock.EpochAt(net.Now(), 10*simtime.Millisecond)
		if got := ag.Pointer().CurrentEpoch(); got != wantEpoch {
			t.Fatalf("%s: pointer epoch %d, local epoch %d", ag, got, wantEpoch)
		}
	}
}

func TestTopLevelPushReachesControlStore(t *testing.T) {
	net, tp, agents := build(t, 0)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2},
		RateBps: 50_000_000, Start: 0, Duration: 20 * simtime.Millisecond})
	// k=3, α=10ms → top window = α³ = 1000 epochs? No: α^(k−1)=100 epochs =
	// 1000 ms. Run past one full top window.
	net.RunUntil(1100 * simtime.Millisecond)
	sl, _ := tp.SwitchByName("SL")
	ag := agents[sl.NodeID()]
	if len(ag.ControlStore) == 0 {
		t.Fatalf("no top-level slots pushed")
	}
	slot := ag.ControlStore[0]
	idx := ag.MPH().Lookup(uint32(dst.IP()))
	if !slot.Bits.Get(idx) {
		t.Fatalf("pushed history lost the destination bit")
	}
}

func TestPullFallsBackToControlStore(t *testing.T) {
	net, tp, agents := build(t, 0)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2},
		RateBps: 50_000_000, Start: 0, Duration: 20 * simtime.Millisecond})
	// Run long enough that epoch 0 is beyond even the live top slot.
	net.RunUntil(2500 * simtime.Millisecond)
	sl, _ := tp.SwitchByName("SL")
	ag := agents[sl.NodeID()]
	res := ag.PullPointers(simtime.EpochRange{Lo: 0, Hi: 1})
	if res.Source != "control-store" {
		t.Fatalf("source = %q, want control-store", res.Source)
	}
	if !res.Hosts.Get(ag.MPH().Lookup(uint32(dst.IP()))) {
		t.Fatalf("offline history lost the destination")
	}
}

// TestRestoreIsAllOrNothing: a snapshot corrupt in any one section — cut
// short, its kind byte flipped, or declaring one byte more than it holds —
// fails to restore and leaves the agent as it was: the same Snapshot bytes
// and the same pull answers. The intact snapshot then restores whole.
func TestRestoreIsAllOrNothing(t *testing.T) {
	agent := func(from, to string) *Agent {
		net, tp, agents := build(t, 0)
		src, _ := tp.HostByName(from)
		dst, _ := tp.HostByName(to)
		transport.StartUDP(net, src, transport.UDPConfig{
			Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2},
			RateBps: 50_000_000, Start: 0, Duration: 20 * simtime.Millisecond})
		net.RunUntil(1100 * simtime.Millisecond) // past one top window: one pushed slot
		sl, _ := tp.SwitchByName("SL")
		return agents[sl.NodeID()]
	}
	src, dst := agent("L1", "R1"), agent("L2", "R2")
	snap := src.Snapshot()
	// Epochs 0–200 need the live levels and the control store.
	all := simtime.EpochRange{Lo: 0, Hi: 200}
	samePull := func(a, b PullResult) bool {
		return a.Hosts.Equal(b.Hosts) && a.Info == b.Info && a.Source == b.Source
	}
	wantPull := dst.PullPointers(all)
	if wantPull.Source != "control-store" || samePull(wantPull, src.PullPointers(all)) {
		t.Fatalf("the two agents must differ, in the live levels and the control store: %+v", wantPull)
	}
	before := dst.Snapshot()

	withLen := func(b []byte, off int, n uint32) []byte {
		b = bytes.Clone(b)
		binary.LittleEndian.PutUint32(b[off+1:], n)
		return b
	}
	off := 0
	for _, section := range []string{"structure", "control store", "mph"} {
		n := binary.LittleEndian.Uint32(snap[off+1:])
		end := off + 5 + int(n)
		flipped := bytes.Clone(snap)
		flipped[off] ^= 0xff
		for how, b := range map[string][]byte{
			"truncated":         withLen(append(bytes.Clone(snap[:end-1]), snap[end:]...), off, n-1),
			"kind flipped":      flipped,
			"length overstated": withLen(snap, off, n+1),
		} {
			if err := dst.Restore(b); err == nil {
				t.Fatalf("%s %s: restored", section, how)
			}
			if !bytes.Equal(dst.Snapshot(), before) {
				t.Fatalf("%s %s: a failed restore changed the agent", section, how)
			}
			if !samePull(dst.PullPointers(all), wantPull) {
				t.Fatalf("%s %s: a failed restore changed the pull answer", section, how)
			}
		}
		off = end
	}
	if off != len(snap) {
		t.Fatalf("three sections end at %d of %d bytes", off, len(snap))
	}

	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !samePull(dst.PullPointers(all), src.PullPointers(all)) || len(dst.ControlStore) != len(src.ControlStore) {
		t.Fatal("the intact snapshot did not restore the source's answers")
	}
}

func TestSlotsAtPullModel(t *testing.T) {
	net, tp, agents := build(t, 0)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2},
		RateBps: 100_000_000, Start: 0, Duration: 50 * simtime.Millisecond})
	net.RunUntil(60 * simtime.Millisecond)
	sl, _ := tp.SwitchByName("SL")
	ag := agents[sl.NodeID()]
	// Five most recent level-1 slots (§4.1.1's "last 50 ms" example).
	slots := ag.SlotsAt(1, simtime.EpochRange{Lo: 0, Hi: 4})
	if len(slots) != 5 {
		t.Fatalf("level-1 slots = %d, want 5", len(slots))
	}
	if ag.PullCount() == 0 {
		t.Fatalf("pull accounting missing")
	}
}

func TestMemoryAccountingIncludesMPH(t *testing.T) {
	_, _, agents := build(t, 0)
	for _, ag := range agents {
		withMPH := ag.MemoryBytes()
		ptrOnly := ag.Pointer().MemoryBytes()
		if withMPH <= ptrOnly {
			t.Fatalf("MemoryBytes should include the MPH table")
		}
	}
}

func TestNoMPHNoTouch(t *testing.T) {
	// Without an installed MPH the datapath forwards but records nothing —
	// matching a switch that has not been initialized by the analyzer.
	net := netsim.New()
	tp := topo.Dumbbell(net, 1, 1, topo.Config{})
	sl, _ := tp.SwitchByName("SL")
	ag, err := New(net, tp, sl, agentConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2},
		RateBps: 100_000_000, Start: 0, Duration: 5 * simtime.Millisecond})
	net.Run()
	if ag.Pointer().Touches() != 0 {
		t.Fatalf("touches without MPH")
	}
	if ag.MPH() != nil {
		t.Fatalf("MPH should be nil")
	}
}

func TestInvalidPointerConfig(t *testing.T) {
	net := netsim.New()
	tp := topo.Dumbbell(net, 1, 1, topo.Config{})
	sl, _ := tp.SwitchByName("SL")
	cfg := agentConfig(2)
	cfg.Pointer.K = 0
	if _, err := New(net, tp, sl, cfg); err == nil {
		t.Fatalf("invalid config accepted")
	}
}

func TestEmbedderWiredThroughAgent(t *testing.T) {
	net, tp, agents := build(t, 0)
	src, _ := tp.HostByName("L1")
	dst, _ := tp.HostByName("R1")
	var tagged int
	dst.OnReceive(func(p *netsim.Packet, now simtime.Time) {
		if p.NTag == 2 {
			tagged++
		}
	})
	transport.StartUDP(net, src, transport.UDPConfig{
		Flow:    netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2},
		RateBps: 100_000_000, Start: 0, Duration: 5 * simtime.Millisecond})
	net.Run()
	if tagged == 0 {
		t.Fatalf("no packets tagged by agent datapath")
	}
	sl, _ := tp.SwitchByName("SL")
	if agents[sl.NodeID()].Embedder().TagsPushed == 0 {
		t.Fatalf("embedder accounting empty")
	}
	if s := agents[sl.NodeID()].String(); s == "" {
		t.Fatalf("String() empty")
	}
}

package topo

import (
	"fmt"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// Config holds the common knobs of the topology builders.
type Config struct {
	// HostRateBps is the host-NIC link rate (default 1 Gb/s, the paper's
	// testbed rate; Fig 9 uses 10 Gb/s).
	HostRateBps int64
	// FabricRateBps is the switch-switch link rate (default = HostRateBps).
	FabricRateBps int64
	// LinkDelay is the per-link propagation delay (default 1 µs).
	LinkDelay simtime.Time
	// Eps bounds the pairwise clock drift between devices (§4.2.1). Switch
	// clock offsets are drawn deterministically from [−Eps/2, +Eps/2].
	Eps simtime.Time
	// Seed drives the deterministic clock-offset assignment.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HostRateBps == 0 {
		c.HostRateBps = netsim.Rate1G
	}
	if c.FabricRateBps == 0 {
		c.FabricRateBps = c.HostRateBps
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = simtime.Microsecond
	}
	return c
}

func (c Config) hostLink() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: c.HostRateBps, Delay: c.LinkDelay}
}

func (c Config) fabricLink() netsim.LinkConfig {
	return netsim.LinkConfig{RateBps: c.FabricRateBps, Delay: c.LinkDelay}
}

// HostByName finds a host by its name.
func (t *Topology) HostByName(name string) (*netsim.Host, bool) {
	for _, h := range t.hosts {
		if h.NodeName() == name {
			return h, true
		}
	}
	return nil, false
}

// SwitchByName finds a switch by its name.
func (t *Topology) SwitchByName(name string) (*netsim.Switch, bool) {
	for _, s := range t.switches {
		if s.NodeName() == name {
			return s, true
		}
	}
	return nil, false
}

// Star builds n hosts under a single switch. Single-switch paths carry no
// link tag (there is no switch-switch link to sample); hosts fall back to
// arrival-time epoch estimation.
func Star(net *netsim.Network, n int, cfg Config) *Topology {
	cfg = cfg.withDefaults()
	t := newTopology(net, fmt.Sprintf("star(%d)", n))
	offs := clockOffsets(1, cfg.Eps, cfg.Seed)
	s := net.NewSwitch("s1", offs[0])
	t.addSwitch(s, RoleToR, -1)
	for i := 0; i < n; i++ {
		h := net.NewHost(fmt.Sprintf("h%d", i+1), netsim.IP(10, 0, 0, byte(i+1)))
		t.addHost(h, s, cfg.hostLink())
	}
	t.tagScope = func(*Topology, *netsim.Switch, netsim.IPv4, int) bool { return false }
	t.reconstruct = func(t *Topology, src, dst netsim.IPv4, link LinkID) ([]netsim.NodeID, int, error) {
		if link != 0 {
			return nil, 0, fmt.Errorf("topo: unexpected link tag %d in star", link)
		}
		return []netsim.NodeID{s.NodeID()}, 0, nil
	}
	t.ComputeRoutes()
	return t
}

// Dumbbell builds nLeft hosts under switch SL and nRight hosts under SR with
// a single SL–SR fabric link: the shared-bottleneck testbed of the
// too-much-traffic experiments (Fig 1(a), Fig 2). Left hosts are named
// "L1..", right hosts "R1..".
func Dumbbell(net *netsim.Network, nLeft, nRight int, cfg Config) *Topology {
	cfg = cfg.withDefaults()
	t := newTopology(net, fmt.Sprintf("dumbbell(%d,%d)", nLeft, nRight))
	offs := clockOffsets(2, cfg.Eps, cfg.Seed)
	sl := net.NewSwitch("SL", offs[0])
	sr := net.NewSwitch("SR", offs[1])
	t.addSwitch(sl, RoleToR, -1)
	t.addSwitch(sr, RoleToR, -1)
	t.connectSwitches(sl, sr, cfg.fabricLink())
	for i := 0; i < nLeft; i++ {
		h := net.NewHost(fmt.Sprintf("L%d", i+1), netsim.IP(10, 0, 1, byte(i+1)))
		t.addHost(h, sl, cfg.hostLink())
	}
	for i := 0; i < nRight; i++ {
		h := net.NewHost(fmt.Sprintf("R%d", i+1), netsim.IP(10, 0, 2, byte(i+1)))
		t.addHost(h, sr, cfg.hostLink())
	}
	t.tagScope = interSwitchTagScope
	t.reconstruct = intervalReconstruct
	t.ComputeRoutes()
	return t
}

// ParallelLinks builds a dumbbell with nLinks parallel SL–SR links. It is the
// §5.4 load-imbalance testbed: a malfunctioning SL spreads flows across the
// parallel interfaces by size instead of by hash. The per-link LinkIDs let
// receiving hosts attribute each flow to the egress interface it used.
func ParallelLinks(net *netsim.Network, nLeft, nRight, nLinks int, cfg Config) *Topology {
	cfg = cfg.withDefaults()
	t := newTopology(net, fmt.Sprintf("parallel(%d,%d,x%d)", nLeft, nRight, nLinks))
	offs := clockOffsets(2, cfg.Eps, cfg.Seed)
	sl := net.NewSwitch("SL", offs[0])
	sr := net.NewSwitch("SR", offs[1])
	t.addSwitch(sl, RoleToR, -1)
	t.addSwitch(sr, RoleToR, -1)
	for i := 0; i < nLinks; i++ {
		t.connectSwitches(sl, sr, cfg.fabricLink())
	}
	for i := 0; i < nLeft; i++ {
		h := net.NewHost(fmt.Sprintf("L%d", i+1), netsim.IP(10, 0, 1, byte(i+1)))
		t.addHost(h, sl, cfg.hostLink())
	}
	for i := 0; i < nRight; i++ {
		// Right side may exceed 254 hosts in large runs; spread over the
		// third octet.
		h := net.NewHost(fmt.Sprintf("R%d", i+1), netsim.IP(10, 1, byte(i/250), byte(i%250+1)))
		t.addHost(h, sr, cfg.hostLink())
	}
	t.tagScope = interSwitchTagScope
	t.reconstruct = intervalReconstruct
	t.ComputeRoutes()
	return t
}

// Chain builds a line of n switches S1–S2–…–Sn with hostsPer[i] hosts under
// switch i. It is the Fig 1(b)/(c) testbed: hosts are named "h<si>-<j>"
// (e.g. "h1-1" is the first host under S1).
func Chain(net *netsim.Network, hostsPer []int, cfg Config) *Topology {
	cfg = cfg.withDefaults()
	n := len(hostsPer)
	if n == 0 {
		panic("topo: Chain needs at least one switch")
	}
	t := newTopology(net, fmt.Sprintf("chain(%d)", n))
	offs := clockOffsets(n, cfg.Eps, cfg.Seed)
	sws := make([]*netsim.Switch, n)
	for i := 0; i < n; i++ {
		sws[i] = net.NewSwitch(fmt.Sprintf("S%d", i+1), offs[i])
		t.addSwitch(sws[i], RoleToR, -1)
	}
	for i := 0; i+1 < n; i++ {
		t.connectSwitches(sws[i], sws[i+1], cfg.fabricLink())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < hostsPer[i]; j++ {
			h := net.NewHost(fmt.Sprintf("h%d-%d", i+1, j+1), netsim.IP(10, 0, byte(i+1), byte(j+1)))
			t.addHost(h, sws[i], cfg.hostLink())
		}
	}
	t.tagScope = interSwitchTagScope
	t.reconstruct = intervalReconstruct
	t.ComputeRoutes()
	return t
}

// interSwitchTagScope tags on any switch-facing egress: combined with the
// "only tag untagged packets" datapath rule this stamps the first
// switch-switch link of the path, which pins the whole trajectory in
// diversity-free topologies (dumbbell, parallel, chain).
func interSwitchTagScope(t *Topology, sw *netsim.Switch, dst netsim.IPv4, outPort int) bool {
	_, isLink := t.LinkIDForPort(sw.NodeID(), outPort)
	return isLink
}

// intervalReconstruct rebuilds paths in diversity-free topologies by walking
// the unique switch-level route and validating it against the tagged link.
func intervalReconstruct(t *Topology, src, dst netsim.IPv4, link LinkID) ([]netsim.NodeID, int, error) {
	srcTor, ok := t.attach[src]
	if !ok {
		return nil, 0, fmt.Errorf("topo: unknown source %s", src)
	}
	dstTor, ok := t.attach[dst]
	if !ok {
		return nil, 0, fmt.Errorf("topo: unknown destination %s", dst)
	}
	if link == 0 {
		if srcTor != dstTor {
			return nil, 0, fmt.Errorf("topo: untagged packet across switches (%s→%s)", src, dst)
		}
		return []netsim.NodeID{srcTor.NodeID()}, 0, nil
	}
	from, to, ok := t.LinkEndpoints(link)
	if !ok {
		return nil, 0, fmt.Errorf("topo: unknown link %d", link)
	}
	path, err := t.PathOf(netsim.FlowKey{Src: src, Dst: dst})
	if err != nil {
		return nil, 0, err
	}
	tagIdx := -1
	for i := 0; i+1 < len(path); i++ {
		if path[i] == from && path[i+1] == to {
			tagIdx = i
			break
		}
	}
	if tagIdx < 0 {
		return nil, 0, fmt.Errorf("topo: link %d not on route %v", link, path)
	}
	return path, tagIdx, nil
}

// LeafSpine builds a 2-tier clos: nLeaf leaves each connected to every one of
// nSpine spines, with hostsPerLeaf hosts per leaf. Hosts are named
// "h<leaf>-<i>"; leaves "leaf<i>", spines "spine<i>". Cross-leaf packets are
// tagged on the leaf→spine key link, which identifies the spine and hence the
// full 3-switch path.
func LeafSpine(net *netsim.Network, nLeaf, nSpine, hostsPerLeaf int, cfg Config) *Topology {
	cfg = cfg.withDefaults()
	t := newTopology(net, fmt.Sprintf("leafspine(%d,%d)", nLeaf, nSpine))
	offs := clockOffsets(nLeaf+nSpine, cfg.Eps, cfg.Seed)
	leaves := make([]*netsim.Switch, nLeaf)
	spines := make([]*netsim.Switch, nSpine)
	for i := range leaves {
		leaves[i] = net.NewSwitch(fmt.Sprintf("leaf%d", i+1), offs[i])
		t.addSwitch(leaves[i], RoleToR, -1)
	}
	for i := range spines {
		spines[i] = net.NewSwitch(fmt.Sprintf("spine%d", i+1), offs[nLeaf+i])
		t.addSwitch(spines[i], RoleCore, -1)
	}
	for _, l := range leaves {
		for _, s := range spines {
			t.connectSwitches(l, s, cfg.fabricLink())
		}
	}
	for i, l := range leaves {
		for j := 0; j < hostsPerLeaf; j++ {
			h := net.NewHost(fmt.Sprintf("h%d-%d", i+1, j+1), netsim.IP(10, 0, byte(i+1), byte(j+1)))
			t.addHost(h, l, cfg.hostLink())
		}
	}
	t.tagScope = func(t *Topology, sw *netsim.Switch, dst netsim.IPv4, outPort int) bool {
		if t.roles[sw.NodeID()] != RoleToR {
			return false
		}
		if tor := t.attach[dst]; tor == sw {
			return false // local delivery, no key link
		}
		_, isLink := t.LinkIDForPort(sw.NodeID(), outPort)
		return isLink
	}
	t.reconstruct = func(t *Topology, src, dst netsim.IPv4, link LinkID) ([]netsim.NodeID, int, error) {
		srcTor, ok1 := t.attach[src]
		dstTor, ok2 := t.attach[dst]
		if !ok1 || !ok2 {
			return nil, 0, fmt.Errorf("topo: unknown endpoint %s→%s", src, dst)
		}
		if link == 0 {
			if srcTor != dstTor {
				return nil, 0, fmt.Errorf("topo: untagged cross-leaf packet")
			}
			return []netsim.NodeID{srcTor.NodeID()}, 0, nil
		}
		from, to, ok := t.LinkEndpoints(link)
		if !ok {
			return nil, 0, fmt.Errorf("topo: unknown link %d", link)
		}
		if from != srcTor.NodeID() {
			return nil, 0, fmt.Errorf("topo: link %d does not start at source leaf", link)
		}
		if srcTor == dstTor {
			return nil, 0, fmt.Errorf("topo: tagged packet within leaf %s", srcTor.NodeName())
		}
		return []netsim.NodeID{srcTor.NodeID(), to, dstTor.NodeID()}, 0, nil
	}
	t.ComputeRoutes()
	return t
}

// FatTree builds the classic k-ary fat-tree (k even): k pods of k/2 edge and
// k/2 aggregation switches, (k/2)² cores, k³/4 hosts. Host IPs follow the
// 10.pod.edge.(i+1) convention. Per CherryPick, intra-pod packets are tagged
// on the edge→agg link (identifying the agg); inter-pod packets on the
// agg→core link (identifying agg and core, which pins the 5-switch path).
func FatTree(net *netsim.Network, k int, cfg Config) *Topology {
	if k < 2 || k%2 != 0 {
		panic("topo: fat-tree arity must be even and ≥ 2")
	}
	cfg = cfg.withDefaults()
	t := newTopology(net, fmt.Sprintf("fattree(k=%d)", k))
	half := k / 2
	nSwitches := k*k + half*half // k pods × k switches + cores
	offs := clockOffsets(nSwitches, cfg.Eps, cfg.Seed)
	oi := 0
	nextOff := func() simtime.Time { o := offs[oi]; oi++; return o }

	edges := make([][]*netsim.Switch, k) // [pod][i]
	aggs := make([][]*netsim.Switch, k)  // [pod][j]
	cores := make([]*netsim.Switch, half*half)
	for p := 0; p < k; p++ {
		edges[p] = make([]*netsim.Switch, half)
		aggs[p] = make([]*netsim.Switch, half)
		for i := 0; i < half; i++ {
			edges[p][i] = net.NewSwitch(fmt.Sprintf("edge%d-%d", p, i), nextOff())
			t.addSwitch(edges[p][i], RoleToR, p)
		}
		for j := 0; j < half; j++ {
			aggs[p][j] = net.NewSwitch(fmt.Sprintf("agg%d-%d", p, j), nextOff())
			t.addSwitch(aggs[p][j], RoleAgg, p)
		}
	}
	for c := range cores {
		cores[c] = net.NewSwitch(fmt.Sprintf("core%d", c), nextOff())
		t.addSwitch(cores[c], RoleCore, -1)
	}
	// Pod fabric: every edge to every agg within the pod.
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				t.connectSwitches(edges[p][i], aggs[p][j], cfg.fabricLink())
			}
		}
	}
	// Core fabric: agg j connects to cores [j·half, (j+1)·half).
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for c := 0; c < half; c++ {
				t.connectSwitches(aggs[p][j], cores[j*half+c], cfg.fabricLink())
			}
		}
	}
	// Hosts.
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for hI := 0; hI < half; hI++ {
				h := net.NewHost(fmt.Sprintf("h%d-%d-%d", p, i, hI),
					netsim.IP(10, byte(p), byte(i), byte(hI+1)))
				t.addHost(h, edges[p][i], cfg.hostLink())
			}
		}
	}

	podOf := func(ip netsim.IPv4) int { return int(byte(ip >> 16)) }
	t.tagScope = func(t *Topology, sw *netsim.Switch, dst netsim.IPv4, outPort int) bool {
		if _, isLink := t.LinkIDForPort(sw.NodeID(), outPort); !isLink {
			return false
		}
		switch t.roles[sw.NodeID()] {
		case RoleToR:
			// Tag only intra-pod, cross-edge traffic at the edge layer.
			return podOf(dst) == t.pod[sw.NodeID()] && t.attach[dst] != sw
		case RoleAgg:
			// Tag inter-pod traffic on the way up to the core.
			return podOf(dst) != t.pod[sw.NodeID()]
		default:
			return false
		}
	}
	t.reconstruct = func(t *Topology, src, dst netsim.IPv4, link LinkID) ([]netsim.NodeID, int, error) {
		srcTor, ok1 := t.attach[src]
		dstTor, ok2 := t.attach[dst]
		if !ok1 || !ok2 {
			return nil, 0, fmt.Errorf("topo: unknown endpoint %s→%s", src, dst)
		}
		if link == 0 {
			if srcTor != dstTor {
				return nil, 0, fmt.Errorf("topo: untagged cross-edge packet")
			}
			return []netsim.NodeID{srcTor.NodeID()}, 0, nil
		}
		from, to, ok := t.LinkEndpoints(link)
		if !ok {
			return nil, 0, fmt.Errorf("topo: unknown link %d", link)
		}
		srcPod, dstPod := t.pod[srcTor.NodeID()], t.pod[dstTor.NodeID()]
		switch {
		case from == srcTor.NodeID() && t.roles[to] == RoleAgg: // edge→agg: intra-pod path
			if srcPod != dstPod || srcTor == dstTor {
				return nil, 0, fmt.Errorf("topo: intra-pod link %d tags a packet that is not intra-pod and cross-edge", link)
			}
			return []netsim.NodeID{srcTor.NodeID(), to, dstTor.NodeID()}, 0, nil
		case t.roles[from] == RoleAgg && t.pod[from] == srcPod && t.roles[to] == RoleCore: // agg→core: inter-pod 5-switch path
			if srcPod == dstPod {
				return nil, 0, fmt.Errorf("topo: inter-pod link %d tags a packet within pod %d", link, srcPod)
			}
			core := to
			var dstAgg netsim.NodeID = -1
			for _, nb := range t.neighbors[core] {
				if t.roles[nb] == RoleAgg && t.pod[nb] == dstPod {
					dstAgg = nb
					break
				}
			}
			if dstAgg < 0 {
				return nil, 0, fmt.Errorf("topo: core of link %d has no agg in pod %d", link, dstPod)
			}
			return []netsim.NodeID{srcTor.NodeID(), from, core, dstAgg, dstTor.NodeID()}, 1, nil
		default:
			return nil, 0, fmt.Errorf("topo: link %d is neither from the source edge to an agg nor from an agg of the source pod to a core", link)
		}
	}
	t.ComputeRoutes()
	return t
}

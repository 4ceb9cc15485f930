package topo

import (
	"fmt"
	"testing"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

func TestStar(t *testing.T) {
	net := netsim.New()
	tp := Star(net, 4, Config{})
	if len(tp.Hosts()) != 4 || len(tp.Switches()) != 1 {
		t.Fatalf("hosts=%d switches=%d", len(tp.Hosts()), len(tp.Switches()))
	}
	h1, h2 := tp.Hosts()[0], tp.Hosts()[1]
	path, err := tp.PathOf(netsim.FlowKey{Src: h1.IP(), Dst: h2.IP()})
	if err != nil || len(path) != 1 {
		t.Fatalf("path=%v err=%v", path, err)
	}
	rp, tagIdx, err := tp.ReconstructPath(h1.IP(), h2.IP(), 0)
	if err != nil || len(rp) != 1 || rp[0] != path[0] || tagIdx != 0 {
		t.Fatalf("reconstruct=%v tagIdx=%d err=%v", rp, tagIdx, err)
	}
	if _, _, err := tp.ReconstructPath(h1.IP(), h2.IP(), 5); err == nil {
		t.Fatalf("bogus link should error")
	}
}

func TestDumbbellRoutingAndDelivery(t *testing.T) {
	net := netsim.New()
	tp := Dumbbell(net, 2, 2, Config{})
	l1, _ := tp.HostByName("L1")
	r1, _ := tp.HostByName("R1")
	got := 0
	r1.OnReceive(func(p *netsim.Packet, now simtime.Time) { got++ })
	l1.Send(&netsim.Packet{ID: 1, Size: 100, Flow: netsim.FlowKey{Src: l1.IP(), Dst: r1.IP()}})
	net.Run()
	if got != 1 {
		t.Fatalf("packet not delivered across dumbbell")
	}
}

func TestDumbbellPathAndKeyLink(t *testing.T) {
	net := netsim.New()
	tp := Dumbbell(net, 2, 2, Config{})
	l1, _ := tp.HostByName("L1")
	l2, _ := tp.HostByName("L2")
	r1, _ := tp.HostByName("R1")
	sl, _ := tp.SwitchByName("SL")
	sr, _ := tp.SwitchByName("SR")

	cross, err := tp.PathOf(netsim.FlowKey{Src: l1.IP(), Dst: r1.IP()})
	if err != nil || len(cross) != 2 || cross[0] != sl.NodeID() || cross[1] != sr.NodeID() {
		t.Fatalf("cross path=%v err=%v", cross, err)
	}
	local, err := tp.PathOf(netsim.FlowKey{Src: l1.IP(), Dst: l2.IP()})
	if err != nil || len(local) != 1 || local[0] != sl.NodeID() {
		t.Fatalf("local path=%v err=%v", local, err)
	}

	// The SL→SR egress must be a key link for cross traffic.
	link, ok := tp.LinkBetween(sl.NodeID(), sr.NodeID())
	if !ok {
		t.Fatalf("no SL→SR link")
	}
	port, ok := tp.portFor(t, sl.NodeID(), link)
	if !ok {
		t.Fatalf("no port for link")
	}
	if !tp.IsKeyLinkEgress(sl, r1.IP(), port) {
		t.Fatalf("SL→SR should be a key link")
	}
	// Host-facing egress is never a key link.
	hostPort := tp.hostPort[l2.IP()]
	if tp.IsKeyLinkEgress(sl, l2.IP(), hostPort) {
		t.Fatalf("host port must not be a key link")
	}

	// Reconstruction from the tagged link.
	rp, tagIdx, err := tp.ReconstructPath(l1.IP(), r1.IP(), link)
	if err != nil || len(rp) != 2 || tagIdx != 0 {
		t.Fatalf("reconstruct=%v tagIdx=%d err=%v", rp, tagIdx, err)
	}
	// Untagged cross-switch reconstruction must fail loudly.
	if _, _, err := tp.ReconstructPath(l1.IP(), r1.IP(), 0); err == nil {
		t.Fatalf("untagged cross-switch should error")
	}
}

// portFor is a test helper resolving a LinkID to its egress port index.
func (tp *Topology) portFor(t *testing.T, sw netsim.NodeID, id LinkID) (int, bool) {
	t.Helper()
	p, ok := tp.portByID[id]
	return p, ok
}

func TestChainPaths(t *testing.T) {
	net := netsim.New()
	tp := Chain(net, []int{2, 2, 2}, Config{})
	a, _ := tp.HostByName("h1-1")
	f, _ := tp.HostByName("h3-2")
	s1, _ := tp.SwitchByName("S1")
	s2, _ := tp.SwitchByName("S2")
	s3, _ := tp.SwitchByName("S3")

	path, err := tp.PathOf(netsim.FlowKey{Src: a.IP(), Dst: f.IP()})
	if err != nil {
		t.Fatal(err)
	}
	want := []netsim.NodeID{s1.NodeID(), s2.NodeID(), s3.NodeID()}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Fatalf("path=%v want %v", path, want)
	}

	link, _ := tp.LinkBetween(s1.NodeID(), s2.NodeID())
	rp, tagIdx, err := tp.ReconstructPath(a.IP(), f.IP(), link)
	if err != nil || len(rp) != 3 || tagIdx != 0 {
		t.Fatalf("reconstruct=%v tagIdx=%d err=%v", rp, tagIdx, err)
	}
	// Reverse direction: the first link is S3→S2.
	rlink, _ := tp.LinkBetween(s3.NodeID(), s2.NodeID())
	rrp, rTagIdx, err := tp.ReconstructPath(f.IP(), a.IP(), rlink)
	if err != nil || len(rrp) != 3 || rrp[0] != s3.NodeID() || rTagIdx != 0 {
		t.Fatalf("reverse reconstruct=%v tagIdx=%d err=%v", rrp, rTagIdx, err)
	}
	// A link not on the route errors.
	badLink, _ := tp.LinkBetween(s2.NodeID(), s1.NodeID())
	if _, _, err := tp.ReconstructPath(a.IP(), f.IP(), badLink); err == nil {
		t.Fatalf("off-route link should error")
	}
}

func TestChainEndToEnd(t *testing.T) {
	net := netsim.New()
	tp := Chain(net, []int{1, 0, 1}, Config{})
	src := tp.Hosts()[0]
	dst := tp.Hosts()[1]
	var got int
	dst.OnReceive(func(p *netsim.Packet, now simtime.Time) { got++ })
	src.Send(&netsim.Packet{ID: 1, Size: 500, Flow: netsim.FlowKey{Src: src.IP(), Dst: dst.IP()}})
	net.Run()
	if got != 1 {
		t.Fatalf("chain delivery failed")
	}
}

func TestParallelLinksDistinctIDs(t *testing.T) {
	net := netsim.New()
	tp := ParallelLinks(net, 1, 4, 2, Config{})
	sl, _ := tp.SwitchByName("SL")
	sr, _ := tp.SwitchByName("SR")
	ids := tp.linkIDs[linkKey{sl.NodeID(), sr.NodeID()}]
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("parallel link IDs = %v", ids)
	}
	// Both parallel egress ports are key links.
	for _, id := range ids {
		port := tp.portByID[id]
		if !tp.IsKeyLinkEgress(sl, tp.Hosts()[1].IP(), port) {
			t.Fatalf("parallel link %d not key", id)
		}
	}
	if tp.NumLinkRules(sl.NodeID()) != 2 {
		t.Fatalf("NumLinkRules = %d, want 2", tp.NumLinkRules(sl.NodeID()))
	}
}

func TestLeafSpine(t *testing.T) {
	net := netsim.New()
	tp := LeafSpine(net, 3, 2, 2, Config{})
	if len(tp.Hosts()) != 6 || len(tp.Switches()) != 5 {
		t.Fatalf("hosts=%d switches=%d", len(tp.Hosts()), len(tp.Switches()))
	}
	h11, _ := tp.HostByName("h1-1")
	h21, _ := tp.HostByName("h2-1")
	h12, _ := tp.HostByName("h1-2")

	flow := netsim.FlowKey{Src: h11.IP(), Dst: h21.IP(), SrcPort: 1000, DstPort: 2000, Proto: netsim.ProtoTCP}
	path, err := tp.PathOf(flow)
	if err != nil || len(path) != 3 {
		t.Fatalf("path=%v err=%v", path, err)
	}
	if tp.RoleOf(path[1]) != RoleCore {
		t.Fatalf("middle hop should be a spine")
	}
	// Reconstruction: the leaf→spine link pins the path.
	link, ok := tp.LinkBetween(path[0], path[1])
	if !ok {
		t.Fatalf("no leaf→spine link")
	}
	rp, tagIdx, err := tp.ReconstructPath(h11.IP(), h21.IP(), link)
	if err != nil || tagIdx != 0 || len(rp) != 3 {
		t.Fatalf("reconstruct=%v err=%v", rp, err)
	}
	for i := range rp {
		if rp[i] != path[i] {
			t.Fatalf("reconstruct mismatch: %v vs %v", rp, path)
		}
	}
	// Same-leaf flows are single-switch, untagged.
	lp, _ := tp.PathOf(netsim.FlowKey{Src: h11.IP(), Dst: h12.IP()})
	if len(lp) != 1 {
		t.Fatalf("same-leaf path=%v", lp)
	}
	rp, _, err = tp.ReconstructPath(h11.IP(), h12.IP(), 0)
	if err != nil || len(rp) != 1 {
		t.Fatalf("untagged same-leaf reconstruct=%v err=%v", rp, err)
	}
}

func TestLeafSpineECMPConsistency(t *testing.T) {
	net := netsim.New()
	tp := LeafSpine(net, 2, 4, 1, Config{})
	h1 := tp.Hosts()[0]
	h2 := tp.Hosts()[1]
	// Different flows may take different spines, but PathOf must agree with
	// the live forwarding decision for each flow.
	for port := uint16(1); port <= 32; port++ {
		flow := netsim.FlowKey{Src: h1.IP(), Dst: h2.IP(), SrcPort: port, DstPort: 80, Proto: netsim.ProtoTCP}
		predicted, err := tp.PathOf(flow)
		if err != nil {
			t.Fatal(err)
		}
		// Trace the live path with pipeline hooks.
		var live []netsim.NodeID
		for _, sw := range tp.Switches() {
			sw := sw
			sw.Pipeline = []netsim.PipelineFunc{func(s *netsim.Switch, p *netsim.Packet, in, out *netsim.Port, now simtime.Time) {
				live = append(live, s.NodeID())
			}}
		}
		h1.Send(&netsim.Packet{ID: uint64(port), Size: 100, Flow: flow})
		net.Run()
		if len(live) != len(predicted) {
			t.Fatalf("flow %v: live %v vs predicted %v", flow, live, predicted)
		}
		for i := range live {
			if live[i] != predicted[i] {
				t.Fatalf("flow %v: live %v vs predicted %v", flow, live, predicted)
			}
		}
	}
}

func TestFatTreeStructure(t *testing.T) {
	net := netsim.New()
	tp := FatTree(net, 4, Config{})
	if len(tp.Hosts()) != 16 {
		t.Fatalf("hosts = %d, want 16", len(tp.Hosts()))
	}
	if len(tp.Switches()) != 20 {
		t.Fatalf("switches = %d, want 20", len(tp.Switches()))
	}
	roles := map[Role]int{}
	for _, s := range tp.Switches() {
		roles[tp.RoleOf(s.NodeID())]++
	}
	if roles[RoleToR] != 8 || roles[RoleAgg] != 8 || roles[RoleCore] != 4 {
		t.Fatalf("roles = %v", roles)
	}
}

func TestFatTreePathsAllPairs(t *testing.T) {
	net := netsim.New()
	tp := FatTree(net, 4, Config{})
	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 1, DstPort: 2, Proto: netsim.ProtoUDP}
			path, err := tp.PathOf(flow)
			if err != nil {
				t.Fatalf("%s→%s: %v", src.NodeName(), dst.NodeName(), err)
			}
			srcTor, _ := tp.ToROf(src.IP())
			dstTor, _ := tp.ToROf(dst.IP())
			switch {
			case srcTor == dstTor:
				if len(path) != 1 {
					t.Fatalf("same-edge path %v", path)
				}
			case tp.pod[srcTor.NodeID()] == tp.pod[dstTor.NodeID()]:
				if len(path) != 3 {
					t.Fatalf("intra-pod path %v", path)
				}
			default:
				if len(path) != 5 {
					t.Fatalf("inter-pod path %v", path)
				}
				if tp.RoleOf(path[2]) != RoleCore {
					t.Fatalf("inter-pod middle not core: %v", path)
				}
			}
		}
	}
}

func TestFatTreeReconstruction(t *testing.T) {
	net := netsim.New()
	tp := FatTree(net, 4, Config{})
	hosts := tp.Hosts()
	checked := map[int]int{}
	for _, src := range hosts {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			flow := netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: 7, DstPort: 9, Proto: netsim.ProtoTCP}
			path, err := tp.PathOf(flow)
			if err != nil {
				t.Fatal(err)
			}
			// Determine which hop would tag, mimicking the datapath: walk
			// the path, first key-link egress wins.
			var link LinkID
			tagSwitch := -1
			for i := 0; i+1 < len(path); i++ {
				nd, _ := tp.Net.NodeByID(path[i])
				sw := nd.(*netsim.Switch)
				// All ports from path[i] to path[i+1]; ECMP picked this one.
				ports := tp.portTo[path[i]][path[i+1]]
				if len(ports) == 0 {
					t.Fatalf("no ports %v→%v", path[i], path[i+1])
				}
				port := ports[0]
				if tp.IsKeyLinkEgress(sw, dst.IP(), port) {
					l, ok := tp.LinkIDForPort(path[i], port)
					if !ok {
						t.Fatalf("key egress has no link ID")
					}
					link = l
					tagSwitch = i
					break
				}
			}
			rp, tagIdx, err := tp.ReconstructPath(src.IP(), dst.IP(), link)
			if err != nil {
				t.Fatalf("%s→%s (path %v, link %d): %v", src.NodeName(), dst.NodeName(), path, link, err)
			}
			if len(rp) != len(path) {
				t.Fatalf("%s→%s: reconstructed %v vs real %v", src.NodeName(), dst.NodeName(), rp, path)
			}
			for i := range rp {
				if rp[i] != path[i] {
					t.Fatalf("%s→%s: reconstructed %v vs real %v", src.NodeName(), dst.NodeName(), rp, path)
				}
			}
			if link != 0 && tagIdx != tagSwitch {
				t.Fatalf("%s→%s: tagIdx %d vs expected %d", src.NodeName(), dst.NodeName(), tagIdx, tagSwitch)
			}
			checked[len(path)]++
		}
	}
	if checked[1] == 0 || checked[3] == 0 || checked[5] == 0 {
		t.Fatalf("coverage: %v (want all of 1-, 3-, 5-switch paths)", checked)
	}
}

func TestFatTreeLiveDelivery(t *testing.T) {
	net := netsim.New()
	tp := FatTree(net, 4, Config{})
	src := tp.Hosts()[0]
	dst := tp.Hosts()[15] // other pod
	delivered := 0
	dst.OnReceive(func(p *netsim.Packet, now simtime.Time) { delivered++ })
	for i := 0; i < 10; i++ {
		src.Send(&netsim.Packet{ID: uint64(i), Size: 1000,
			Flow: netsim.FlowKey{Src: src.IP(), Dst: dst.IP(), SrcPort: uint16(i), DstPort: 80, Proto: netsim.ProtoUDP}})
	}
	net.Run()
	if delivered != 10 {
		t.Fatalf("delivered %d/10", delivered)
	}
}

func TestSharesSegment(t *testing.T) {
	a := []netsim.NodeID{1, 2, 3}
	b := []netsim.NodeID{4, 2, 3}
	c := []netsim.NodeID{3, 2, 1}
	if !SharesSegment(a, b) {
		t.Fatalf("a and b share 2→3")
	}
	if SharesSegment(a, c) {
		t.Fatalf("a and c share no directed segment")
	}
	if SharesSegment(a, []netsim.NodeID{9}) {
		t.Fatalf("single-switch path has no segments")
	}
	if !ContainsSwitch(a, 2) || ContainsSwitch(a, 9) {
		t.Fatalf("ContainsSwitch wrong")
	}
}

func TestECMPIndexDeterministic(t *testing.T) {
	f := netsim.FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: netsim.ProtoTCP}
	if ECMPIndex(f, 4) != ECMPIndex(f, 4) {
		t.Fatalf("non-deterministic")
	}
	// Spread check: many flows should not all pick the same path.
	counts := make([]int, 4)
	for p := uint16(0); p < 64; p++ {
		g := f
		g.SrcPort = p
		counts[ECMPIndex(g, 4)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("ECMP bucket %d never used: %v", i, counts)
		}
	}
}

func TestClockOffsetsBounded(t *testing.T) {
	eps := 10 * simtime.Millisecond
	offs := clockOffsets(50, eps, 42)
	for i, o := range offs {
		if o < -eps/2 || o > eps/2 {
			t.Fatalf("offset %d = %v out of ±ε/2", i, o)
		}
	}
	// Deterministic for a given seed.
	offs2 := clockOffsets(50, eps, 42)
	for i := range offs {
		if offs[i] != offs2[i] {
			t.Fatalf("offsets not deterministic")
		}
	}
	if clockOffsets(3, 0, 1)[0] != 0 {
		t.Fatalf("zero eps should give zero offsets")
	}
}

func TestNumLinkRulesScalesWithPorts(t *testing.T) {
	net := netsim.New()
	tp := FatTree(net, 4, Config{})
	// An edge switch has 2 up-ports (to aggs): 2 link rules.
	edge, _ := tp.SwitchByName("edge0-0")
	if got := tp.NumLinkRules(edge.NodeID()); got != 2 {
		t.Fatalf("edge link rules = %d, want 2", got)
	}
	// An agg has 2 down (to edges) + 2 up (to cores) = 4.
	agg, _ := tp.SwitchByName("agg0-0")
	if got := tp.NumLinkRules(agg.NodeID()); got != 4 {
		t.Fatalf("agg link rules = %d, want 4", got)
	}
}

func TestFatTreeOddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("odd k should panic")
		}
	}()
	FatTree(netsim.New(), 3, Config{})
}

func TestHostSwitchLookupMisses(t *testing.T) {
	net := netsim.New()
	tp := Dumbbell(net, 1, 1, Config{})
	if _, ok := tp.HostByName("nope"); ok {
		t.Fatalf("bogus host found")
	}
	if _, ok := tp.SwitchByName("nope"); ok {
		t.Fatalf("bogus switch found")
	}
	if _, ok := tp.ToROf(netsim.IP(9, 9, 9, 9)); ok {
		t.Fatalf("bogus IP found")
	}
	if _, err := tp.PathOf(netsim.FlowKey{Src: netsim.IP(9, 9, 9, 9), Dst: tp.Hosts()[0].IP()}); err == nil {
		t.Fatalf("unknown src should error")
	}
}

// TestLinkIDForPortMatchesGraph pins the port-indexed linkID rule table to
// the graph it is filled from: for every builder and every (switch, port) —
// host-facing, negative and out-of-range ports included, and node IDs that
// are hosts or do not exist — LinkIDForPort agrees with the search over
// (portTo, linkIDs) it replaced.
func TestLinkIDForPortMatchesGraph(t *testing.T) {
	fromGraph := func(tp *Topology, sw netsim.NodeID, port int) (LinkID, bool) {
		for to, ports := range tp.portTo[sw] {
			for i, p := range ports {
				if p == port {
					return tp.linkIDs[linkKey{sw, to}][i], true
				}
			}
		}
		return 0, false
	}
	builders := map[string]func(*netsim.Network) *Topology{
		"star":      func(n *netsim.Network) *Topology { return Star(n, 4, Config{}) },
		"dumbbell":  func(n *netsim.Network) *Topology { return Dumbbell(n, 3, 2, Config{}) },
		"parallel":  func(n *netsim.Network) *Topology { return ParallelLinks(n, 2, 2, 3, Config{}) },
		"chain":     func(n *netsim.Network) *Topology { return Chain(n, []int{2, 0, 1, 3}, Config{}) },
		"leafspine": func(n *netsim.Network) *Topology { return LeafSpine(n, 4, 2, 3, Config{}) },
		"fattree":   func(n *netsim.Network) *Topology { return FatTree(n, 4, Config{}) },
	}
	for name, build := range builders {
		tp := build(netsim.New())
		links, nodes := 0, netsim.NodeID(len(tp.Hosts())+len(tp.Switches()))
		for id := netsim.NodeID(-2); id < nodes+2; id++ {
			maxPort := 2
			if nd, ok := tp.Net.NodeByID(id); ok {
				if sw, isSwitch := nd.(*netsim.Switch); isSwitch {
					maxPort += len(sw.Ports())
				}
			}
			for port := -2; port < maxPort; port++ {
				want, wantOK := fromGraph(tp, id, port)
				got, ok := tp.LinkIDForPort(id, port)
				if got != want || ok != wantOK {
					t.Fatalf("%s: LinkIDForPort(%d, %d) = %d, %v; graph says %d, %v", name, id, port, got, ok, want, wantOK)
				}
				if ok {
					links++
				}
			}
		}
		if want := int(tp.nextLink) - 1; links != want {
			t.Fatalf("%s: table resolves %d directed links, %d registered", name, links, want)
		}
	}
}

func ExampleECMPIndex() {
	flow := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, 1, 1), SrcPort: 12345, DstPort: 80, Proto: netsim.ProtoTCP}
	fmt.Println(ECMPIndex(flow, 4) == ECMPIndex(flow, 4))
	// Output: true
}

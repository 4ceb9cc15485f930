// Package topo builds the datacenter topologies the paper's testbeds use and
// computes routing, packet trajectories, and CherryPick key links over them.
//
// SwitchPointer's commodity-mode header embedding (§4.1.3) relies on the
// CherryPick observation [SOSR'15]: in clos-style datacenter topologies an
// end-to-end path is identified by a small number of "key" links, so a switch
// only needs to stamp one linkID VLAN tag (plus one epochID tag) for the
// receiving host to reconstruct the whole trajectory. This package decides,
// per topology, which egress links are key links for which destinations, and
// performs the inverse reconstruction at the host.
package topo

import (
	"fmt"
	"math/rand"
	"sort"

	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// LinkID identifies one directed switch-to-switch link. LinkID 0 is reserved
// to mean "no link tag" (single-switch paths).
type LinkID uint32

// Role classifies a switch within its topology.
type Role uint8

// Switch roles.
const (
	RoleToR  Role = iota + 1 // edge / leaf / top-of-rack
	RoleAgg                  // aggregation
	RoleCore                 // core / spine
)

type linkKey struct {
	from, to netsim.NodeID
}

// Topology wraps a netsim.Network with the structural knowledge SwitchPointer
// needs: host attachment points, link identifiers, routing, and key links.
type Topology struct {
	Net *netsim.Network

	// Name describes the topology instance, e.g. "fattree(k=4)".
	Name string

	hosts    []*netsim.Host
	switches []*netsim.Switch
	roles    map[netsim.NodeID]Role
	pod      map[netsim.NodeID]int // pod number for fat-tree nodes, -1 otherwise

	attach   map[netsim.IPv4]*netsim.Switch // host IP → ToR
	hostPort map[netsim.IPv4]int            // ToR-local port facing the host

	// Directed switch-switch graph.
	neighbors map[netsim.NodeID][]netsim.NodeID         // deterministic order
	portTo    map[netsim.NodeID]map[netsim.NodeID][]int // from → to → local egress ports (parallel links possible)
	linkIDs   map[linkKey][]LinkID                      // directed link(s) → IDs (one per parallel link)
	linkByID  map[LinkID]linkKey
	portByID  map[LinkID]int // egress port index at the from-switch
	nextLink  LinkID

	// linkRules is the linkID flow-rule table the datapath reads (§4.1, one
	// rule per switch-facing egress port): [switch NodeID][egress port] →
	// LinkID, 0 for a host-facing port. The graph above is for routing and
	// reconstruction; nothing on the packet path searches it.
	linkRules [][]LinkID

	// egress is the routing table ComputeRoutes computed: [switch NodeID]
	// → host IP → the switch's equal-cost egress ports toward that host,
	// ascending. Hosts under one ToR share one slice at every other switch.
	egress []map[netsim.IPv4][]int

	// tagScope decides whether a given egress link is a key (tagging) link
	// for a packet to dst. Set by builders.
	tagScope func(t *Topology, sw *netsim.Switch, dst netsim.IPv4, outPort int) bool

	// reconstruct rebuilds the switch-level path from (src, dst, linkID).
	// Set by builders. linkID 0 means "untagged".
	reconstruct func(t *Topology, src, dst netsim.IPv4, link LinkID) ([]netsim.NodeID, int, error)
}

func newTopology(net *netsim.Network, name string) *Topology {
	return &Topology{
		Net:       net,
		Name:      name,
		roles:     make(map[netsim.NodeID]Role),
		pod:       make(map[netsim.NodeID]int),
		attach:    make(map[netsim.IPv4]*netsim.Switch),
		hostPort:  make(map[netsim.IPv4]int),
		neighbors: make(map[netsim.NodeID][]netsim.NodeID),
		portTo:    make(map[netsim.NodeID]map[netsim.NodeID][]int),
		linkIDs:   make(map[linkKey][]LinkID),
		linkByID:  make(map[LinkID]linkKey),
		portByID:  make(map[LinkID]int),
		nextLink:  1,
	}
}

// Hosts returns all hosts.
func (t *Topology) Hosts() []*netsim.Host { return t.hosts }

// Switches returns all switches.
func (t *Topology) Switches() []*netsim.Switch { return t.switches }

// ToROf returns the switch a host attaches to.
func (t *Topology) ToROf(ip netsim.IPv4) (*netsim.Switch, bool) {
	s, ok := t.attach[ip]
	return s, ok
}

// addHost wires a host under a ToR.
func (t *Topology) addHost(h *netsim.Host, tor *netsim.Switch, link netsim.LinkConfig) {
	_, torPort := t.Net.Connect(h, tor, link)
	t.hosts = append(t.hosts, h)
	t.attach[h.IP()] = tor
	t.hostPort[h.IP()] = torPort.Index()
}

// addSwitch records a switch with a role (and optional pod).
func (t *Topology) addSwitch(s *netsim.Switch, role Role, pod int) {
	t.switches = append(t.switches, s)
	t.roles[s.NodeID()] = role
	t.pod[s.NodeID()] = pod
}

// connectSwitches wires a full-duplex switch-switch link and assigns the two
// directed LinkIDs.
func (t *Topology) connectSwitches(a, b *netsim.Switch, link netsim.LinkConfig) (abID, baID LinkID) {
	pa, pb := t.Net.Connect(a, b, link)
	abID = t.registerLink(a.NodeID(), b.NodeID(), pa.Index())
	baID = t.registerLink(b.NodeID(), a.NodeID(), pb.Index())
	return abID, baID
}

func (t *Topology) registerLink(from, to netsim.NodeID, port int) LinkID {
	id := t.nextLink
	t.nextLink++
	k := linkKey{from, to}
	if len(t.linkIDs[k]) == 0 {
		t.neighbors[from] = append(t.neighbors[from], to)
	}
	t.linkIDs[k] = append(t.linkIDs[k], id)
	t.linkByID[id] = k
	if t.portTo[from] == nil {
		t.portTo[from] = make(map[netsim.NodeID][]int)
	}
	t.portTo[from][to] = append(t.portTo[from][to], port)
	t.portByID[id] = port
	for int(from) >= len(t.linkRules) {
		t.linkRules = append(t.linkRules, nil)
	}
	rules := t.linkRules[from]
	for port >= len(rules) {
		rules = append(rules, 0)
	}
	rules[port] = id
	t.linkRules[from] = rules
	return id
}

// LinkBetween returns the first directed LinkID from switch a to b.
func (t *Topology) LinkBetween(a, b netsim.NodeID) (LinkID, bool) {
	ids := t.linkIDs[linkKey{a, b}]
	if len(ids) == 0 {
		return 0, false
	}
	return ids[0], true
}

// LinkEndpoints resolves a LinkID to its (from, to) switches.
func (t *Topology) LinkEndpoints(id LinkID) (from, to netsim.NodeID, ok bool) {
	k, found := t.linkByID[id]
	return k.from, k.to, found
}

// LinkIDForPort returns the LinkID of switch sw's egress port, if that port
// is a switch-switch link.
func (t *Topology) LinkIDForPort(sw netsim.NodeID, port int) (LinkID, bool) {
	if uint(sw) >= uint(len(t.linkRules)) {
		return 0, false
	}
	rules := t.linkRules[sw]
	if uint(port) >= uint(len(rules)) {
		return 0, false
	}
	id := rules[port]
	return id, id != 0
}

// IsKeyLinkEgress reports whether a packet for dst leaving switch sw on
// outPort should receive the (linkID, epochID) tag pair there.
func (t *Topology) IsKeyLinkEgress(sw *netsim.Switch, dst netsim.IPv4, outPort int) bool {
	if t.tagScope == nil {
		return false
	}
	return t.tagScope(t, sw, dst, outPort)
}

// ReconstructPath rebuilds the switch-level trajectory of a packet from its
// source, destination and the linkID carried in its header (0 when the packet
// carried no link tag, i.e. a single-switch path). It returns the path and
// the index within it of the tagging switch (-1 when untagged; by convention
// the single ToR for untagged paths).
func (t *Topology) ReconstructPath(src, dst netsim.IPv4, link LinkID) ([]netsim.NodeID, int, error) {
	if t.reconstruct == nil {
		return nil, 0, fmt.Errorf("topo: no reconstruction defined for %s", t.Name)
	}
	return t.reconstruct(t, src, dst, link)
}

// ComputeRoutes installs shortest-path routes for every host destination on
// every switch, breaking equal-cost ties with a deterministic per-flow ECMP
// hash (installed as a RouteOverride on switches with path diversity), and
// keeps the port lists as the table EgressPortsToward reads. It runs one BFS
// per destination ToR: every host under a ToR shares one port list at each
// other switch.
func (t *Topology) ComputeRoutes() {
	t.egress = nil
	for _, sw := range t.switches {
		for int(sw.NodeID()) >= len(t.egress) {
			t.egress = append(t.egress, nil)
		}
		t.egress[sw.NodeID()] = make(map[netsim.IPv4][]int, len(t.hosts))
	}
	toward := make(map[*netsim.Switch][][]int) // a ToR → its port list at each switch
	for _, h := range t.hosts {
		ip, tor := h.IP(), t.attach[h.IP()]
		lists, ok := toward[tor]
		if !ok {
			dist := t.bfsDistances(tor.NodeID())
			for _, sw := range t.switches {
				lists = append(lists, t.portsToward(sw.NodeID(), dist))
			}
			toward[tor] = lists
		}
		for i, sw := range t.switches {
			ports := lists[i]
			if sw == tor {
				ports = []int{t.hostPort[ip]}
			}
			if len(ports) > 0 {
				t.egress[sw.NodeID()][ip] = ports
				sw.SetRoute(ip, ports[0])
			}
		}
	}
	for _, sw := range t.switches {
		table := t.egress[sw.NodeID()]
		multi := false
		for _, ports := range table {
			if len(ports) > 1 {
				multi = true
				break
			}
		}
		if multi {
			sw.RouteOverride = func(s *netsim.Switch, p *netsim.Packet) (int, bool) {
				ports := table[p.Flow.Dst]
				if len(ports) <= 1 {
					return 0, false
				}
				return ports[ECMPIndex(p.Flow, len(ports))], true
			}
		}
	}
}

// EgressPortsToward returns the egress ports switch sw may use for traffic
// to dst (all equal-cost choices, ascending; nil when sw is not a switch or
// has no route). The analyzer's pruning uses it to decide whether a
// candidate host's traffic could have shared the victim's output queue. The
// slice is the routing table ComputeRoutes keeps, shared by every caller and
// every host under dst's ToR: callers must not modify it.
func (t *Topology) EgressPortsToward(sw netsim.NodeID, dst netsim.IPv4) []int {
	if sw >= 0 && int(sw) < len(t.egress) {
		return t.egress[sw][dst]
	}
	return nil
}

// candidatePorts returns the egress ports of sw on shortest paths to dst, in
// deterministic order, by a BFS of its own — the route oracle PathOf walks.
func (t *Topology) candidatePorts(sw *netsim.Switch, dst netsim.IPv4) []int {
	tor := t.attach[dst]
	if tor == nil {
		return nil
	}
	if sw == tor {
		return []int{t.hostPort[dst]}
	}
	return t.portsToward(sw.NodeID(), t.bfsDistances(tor.NodeID()))
}

// portsToward returns the egress ports of sw one hop closer to the root of
// dist, sorted; nil at the root or off its component.
func (t *Topology) portsToward(sw netsim.NodeID, dist map[netsim.NodeID]int) []int {
	d, ok := dist[sw]
	if !ok {
		return nil
	}
	var ports []int
	for _, nb := range t.neighbors[sw] {
		if nd, ok := dist[nb]; ok && nd == d-1 {
			ports = append(ports, t.portTo[sw][nb]...)
		}
	}
	sort.Ints(ports)
	return ports
}

// bfsDistances computes hop distances from a root switch over the
// switch-switch graph.
func (t *Topology) bfsDistances(root netsim.NodeID) map[netsim.NodeID]int {
	dist := map[netsim.NodeID]int{root: 0}
	queue := []netsim.NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.neighbors[cur] {
			if _, seen := dist[nb]; !seen {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// PathOf walks the installed routing state and returns the ground-truth
// switch path a flow takes. It is the oracle tests compare header-based
// reconstruction against; the running system never calls it.
func (t *Topology) PathOf(flow netsim.FlowKey) ([]netsim.NodeID, error) {
	tor, ok := t.attach[flow.Src]
	if !ok {
		return nil, fmt.Errorf("topo: unknown source %s", flow.Src)
	}
	dstTor, ok := t.attach[flow.Dst]
	if !ok {
		return nil, fmt.Errorf("topo: unknown destination %s", flow.Dst)
	}
	path := []netsim.NodeID{tor.NodeID()}
	cur := tor
	for cur != dstTor {
		ports := t.candidatePorts(cur, flow.Dst)
		if len(ports) == 0 {
			return nil, fmt.Errorf("topo: no route from %s to %s", cur.NodeName(), flow.Dst)
		}
		port := ports[0]
		if len(ports) > 1 {
			port = ports[ECMPIndex(flow, len(ports))]
		}
		next, ok := t.switchAtPort(cur, port)
		if !ok {
			return nil, fmt.Errorf("topo: port %d of %s does not face a switch", port, cur.NodeName())
		}
		path = append(path, next.NodeID())
		cur = next
		if len(path) > 16 {
			return nil, fmt.Errorf("topo: path too long (loop?)")
		}
	}
	return path, nil
}

func (t *Topology) switchAtPort(sw *netsim.Switch, port int) (*netsim.Switch, bool) {
	for to, ports := range t.portTo[sw.NodeID()] {
		for _, p := range ports {
			if p == port {
				nd, _ := t.Net.NodeByID(to)
				next, ok := nd.(*netsim.Switch)
				return next, ok
			}
		}
	}
	return nil, false
}

// ECMPIndex deterministically picks one of n equal-cost paths for a flow by
// hashing its 5-tuple (FNV-1a).
func ECMPIndex(flow netsim.FlowKey, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(flow.Src))
	mix(uint64(flow.Dst))
	mix(uint64(flow.SrcPort)<<16 | uint64(flow.DstPort))
	mix(uint64(flow.Proto))
	// Finalize: multiplicative mixing alone leaves the low bits weak, and the
	// modulo below consumes exactly those bits.
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(n))
}

// ClockJitter deterministically assigns each switch a clock offset uniform in
// [−ε/2, +ε/2] so that any pair drifts by at most ε, the paper's asynchrony
// bound. Call before creating switches is impossible (offsets are fixed at
// construction), so builders take eps and a seed in their configs and use
// this helper internally.
func clockOffsets(n int, eps simtime.Time, seed int64) []simtime.Time {
	offs := make([]simtime.Time, n)
	if eps <= 0 {
		return offs
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range offs {
		offs[i] = simtime.Time(rng.Int63n(int64(eps)+1)) - eps/2
	}
	return offs
}

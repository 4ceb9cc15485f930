//go:build !race

package switchagent

import (
	"testing"

	"switchpointer/internal/header"
	"switchpointer/internal/mph"
	"switchpointer/internal/netsim"
	"switchpointer/internal/pointer"
	"switchpointer/internal/simtime"
	"switchpointer/internal/topo"
)

// TestStageAllocFree pins the per-packet datapath: the pipeline stage New
// installs allocates nothing per packet, for k = 1 and k = 5 with the dense
// and adaptive backends, in commodity mode on a key-link egress — and the
// packet leaves with exactly one link tag and one epoch tag. Each run first
// sends every destination once, so the adaptive backend has already grown
// its slot to the epoch's working set: what remains is the steady state a
// forwarded packet pays. (Under -race, sync.Pool drops Puts, so the pin
// only holds in the plain test leg.)
func TestStageAllocFree(t *testing.T) {
	const hosts = 4096
	keys := make([]uint32, hosts)
	for i := range keys {
		keys[i] = 10<<24 + uint32(i)
	}
	table, err := mph.Build(keys)
	if err != nil {
		t.Fatal(err)
	}
	alpha := 10 * simtime.Millisecond
	for _, backend := range []pointer.Backend{pointer.BackendDense, pointer.BackendAdaptive} {
		for _, k := range []int{1, 5} {
			net := netsim.New()
			tp := topo.Dumbbell(net, 1, 1, topo.Config{})
			sl := tp.Switches()[0]
			ag, err := New(net, tp, sl, Config{
				Pointer: pointer.Config{Alpha: alpha, K: k, NumHosts: hosts, Backend: backend},
				Mode:    header.ModeCommodity,
				Params:  header.Params{Alpha: alpha},
			})
			if err != nil {
				t.Fatal(err)
			}
			ag.InstallMPH(table)
			stage := sl.Pipeline[len(sl.Pipeline)-1]
			var out *netsim.Port
			var link topo.LinkID
			for _, pt := range sl.Ports() {
				if id, ok := tp.LinkIDForPort(sl.NodeID(), pt.Index()); ok {
					out, link = pt, id
				}
			}
			p := netsim.AllocPacket()
			i := 0
			send := func() {
				p.Flow.Dst = netsim.IPv4(keys[i%hosts])
				p.NTag = 0
				stage(sl, p, nil, out, net.Now())
				i++
			}
			for range keys {
				send()
			}
			if allocs := testing.AllocsPerRun(2*hosts, send); allocs != 0 {
				t.Errorf("%s k=%d: stage allocates %v per packet, want 0", backend, k, allocs)
			}
			lt, okLink := p.TagOf(netsim.TagLink)
			et, okEpoch := p.TagOf(netsim.TagEpoch)
			epoch := sl.Clock.EpochAt(net.Now(), alpha)
			if p.NTag != 2 || !okLink || !okEpoch || lt.Value != uint32(link) || et.Value != uint32(epoch) {
				t.Errorf("%s k=%d: packet left with tags %v (NTag %d), want link tag %d and epoch tag %d",
					backend, k, p.Tags, p.NTag, link, epoch)
			}
			if got, want := ag.Embedder().TagsPushed, uint64(hosts+2*hosts+1); got != want {
				t.Errorf("%s k=%d: %d tag pairs pushed, want one per packet (%d)", backend, k, got, want)
			}
			p.Release()
		}
	}
}

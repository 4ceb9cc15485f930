package flowrec

import (
	"testing"

	"switchpointer/internal/header"
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

func sampleDecoded() header.Decoded {
	return header.Decoded{
		Mode:   header.ModeCommodity,
		Path:   []netsim.NodeID{1, 2, 3},
		Epochs: []simtime.EpochRange{{Lo: 4, Hi: 6}, {Lo: 5, Hi: 5}, {Lo: 5, Hi: 7}},
		TagIdx: 1,
	}
}

func samplePacket(size int, prio uint8) *netsim.Packet {
	return &netsim.Packet{
		Flow:     netsim.FlowKey{Src: 10, Dst: 20, SrcPort: 1, DstPort: 2, Proto: netsim.ProtoTCP},
		Priority: prio,
		Size:     size,
	}
}

func TestAbsorbFirstPacket(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	r.Absorb(samplePacket(1000, 3), sampleDecoded(), 7*simtime.Millisecond)
	if r.Pkts != 1 || r.Bytes != 1000 || r.Priority != 3 {
		t.Fatalf("basic counters wrong: %+v", r)
	}
	if len(r.Path) != 3 || r.TagIdx != 1 {
		t.Fatalf("path wrong: %+v", r)
	}
	if r.FirstSeen != 7*simtime.Millisecond || r.LastSeen != r.FirstSeen {
		t.Fatalf("timestamps wrong")
	}
	// Exact epoch accounting at tag switch (epoch 5).
	if r.EpochBytes[5] != 1000 {
		t.Fatalf("EpochBytes = %v", r.EpochBytes)
	}
}

func TestAbsorbMergesEpochRanges(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	r.Absorb(samplePacket(1000, 1), sampleDecoded(), simtime.Millisecond)
	d2 := sampleDecoded()
	d2.Epochs = []simtime.EpochRange{{Lo: 8, Hi: 9}, {Lo: 8, Hi: 8}, {Lo: 7, Hi: 9}}
	r.Absorb(samplePacket(500, 1), d2, 2*simtime.Millisecond)
	if r.Pkts != 2 || r.Bytes != 1500 {
		t.Fatalf("counters: %+v", r)
	}
	if r.Epochs[0].Lo != 4 || r.Epochs[0].Hi != 9 {
		t.Fatalf("union wrong: %v", r.Epochs[0])
	}
	if r.EpochBytes[5] != 1000 || r.EpochBytes[8] != 500 {
		t.Fatalf("EpochBytes = %v", r.EpochBytes)
	}
}

func TestAbsorbPathChangeResets(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	r.Absorb(samplePacket(100, 0), sampleDecoded(), 0)
	d2 := header.Decoded{
		Path:   []netsim.NodeID{1, 9, 3},
		Epochs: []simtime.EpochRange{{Lo: 10, Hi: 10}, {Lo: 10, Hi: 11}, {Lo: 11, Hi: 12}},
		TagIdx: 0,
	}
	r.Absorb(samplePacket(100, 0), d2, simtime.Millisecond)
	if r.Path[1] != 9 {
		t.Fatalf("path not updated: %v", r.Path)
	}
	if r.Epochs[1].Lo != 10 {
		t.Fatalf("epochs not reset: %v", r.Epochs)
	}
}

func TestEpochsAtAndBytesIn(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	r.Absorb(samplePacket(1000, 0), sampleDecoded(), 0)
	er, ok := r.EpochsAt(2)
	if !ok || er.Lo != 5 || er.Hi != 5 {
		t.Fatalf("EpochsAt(2) = %v %v", er, ok)
	}
	if _, ok := r.EpochsAt(42); ok {
		t.Fatalf("unknown switch should miss")
	}
	if !r.Traverses(3) || r.Traverses(42) {
		t.Fatalf("Traverses wrong")
	}
	if r.BytesIn(simtime.EpochRange{Lo: 5, Hi: 5}) != 1000 {
		t.Fatalf("BytesIn hit wrong")
	}
	if r.BytesIn(simtime.EpochRange{Lo: 6, Hi: 9}) != 0 {
		t.Fatalf("BytesIn miss wrong")
	}
}

func TestTagLinkRecorded(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	p := samplePacket(100, 0)
	p.PushTag(netsim.Tag{Type: netsim.TagLink, Value: 77})
	p.PushTag(netsim.Tag{Type: netsim.TagEpoch, Value: 5})
	r.Absorb(p, sampleDecoded(), 0)
	if r.TagLink != 77 {
		t.Fatalf("TagLink = %d", r.TagLink)
	}
}

func TestSortedEpochs(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	d := sampleDecoded()
	for _, e := range []simtime.Epoch{9, 3, 7} {
		d.Epochs[1] = simtime.EpochRange{Lo: e, Hi: e}
		r.Absorb(samplePacket(10, 0), d, 0)
	}
	got := r.SortedEpochs()
	if len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("SortedEpochs = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	r.Absorb(samplePacket(100, 2), sampleDecoded(), 0)
	c := r.Clone()
	c.EpochBytes[99] = 1
	c.Path[0] = 42
	if _, ok := r.EpochBytes[99]; ok {
		t.Fatalf("clone aliases EpochBytes")
	}
	if r.Path[0] == 42 {
		t.Fatalf("clone aliases Path")
	}
	if c.Bytes != r.Bytes {
		t.Fatalf("clone lost data")
	}
}

func TestUntaggedEpochAccounting(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	d := header.Decoded{
		Mode:   header.ModeCommodity,
		Path:   []netsim.NodeID{5},
		Epochs: []simtime.EpochRange{{Lo: 10, Hi: 14}},
		TagIdx: -1,
	}
	r.Absorb(samplePacket(100, 0), d, 0)
	// Midpoint of the estimate: epoch 12.
	if r.EpochBytes[12] != 100 {
		t.Fatalf("EpochBytes = %v", r.EpochBytes)
	}
}

func TestStringForm(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	r.Absorb(samplePacket(100, 2), sampleDecoded(), 0)
	if s := r.String(); s == "" {
		t.Fatalf("empty String()")
	}
}

// TestAbsorbVouchesOnlyForWhatItSaw pins the steady mark's contract: set by
// an Absorb that changed neither the path nor any epoch range, by nothing
// else, and good for exactly one TakeSteady.
func TestAbsorbVouchesOnlyForWhatItSaw(t *testing.T) {
	r := New(samplePacket(0, 0).Flow)
	if r.TakeSteady() {
		t.Fatal("a new record is marked steady")
	}
	r.Absorb(samplePacket(100, 1), sampleDecoded(), 1)
	if r.TakeSteady() {
		t.Fatal("the first packet (it sets the path) left the record steady")
	}
	r.Absorb(samplePacket(100, 1), sampleDecoded(), 2)
	if !r.TakeSteady() {
		t.Fatal("same path, same epochs: not marked steady")
	}
	if r.TakeSteady() {
		t.Fatal("one Absorb vouched twice")
	}
	inside := sampleDecoded()
	inside.Epochs[0] = simtime.EpochRange{Lo: 5, Hi: 5} // within [4,6]: widens nothing
	r.Absorb(samplePacket(100, 1), inside, 3)
	if !r.TakeSteady() {
		t.Fatal("a range inside the recorded one withdrew the mark")
	}
	wider := sampleDecoded()
	wider.Epochs[2].Hi = 8
	r.Absorb(samplePacket(100, 1), wider, 4)
	if r.TakeSteady() {
		t.Fatal("a widened range left the record steady")
	}
	r.Absorb(samplePacket(100, 1), sampleDecoded(), 5)
	if c := r.Clone(); c.TakeSteady() {
		t.Fatal("a clone inherited the mark")
	}
	rerouted := sampleDecoded()
	rerouted.Path = []netsim.NodeID{1, 9, 3}
	r.Absorb(samplePacket(100, 1), rerouted, 6)
	if r.TakeSteady() {
		t.Fatal("a path change left the record steady")
	}
}

package hostagent

import (
	"testing"

	"switchpointer/internal/netsim"
)

func alertFor(flow netsim.FlowKey, host netsim.IPv4) Alert {
	return Alert{Kind: AlertThroughputDrop, Flow: flow, Host: host}
}

func TestBusFanOutAndFilters(t *testing.T) {
	b := NewBus()
	flowA := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: 6}
	flowB := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 3), Dst: netsim.IP(10, 0, 0, 4), SrcPort: 3, DstPort: 4, Proto: 17}

	all1 := b.Subscribe(AlertFilter{})
	all2 := b.Subscribe(AlertFilter{})
	onlyA := b.Subscribe(AlertFilter{Flow: flowA})
	onlyB := b.Subscribe(AlertFilter{Flow: flowB})
	onlyHost := b.Subscribe(AlertFilter{Host: flowB.Dst})

	if n := b.Publish(alertFor(flowA, flowA.Dst)); n != 3 {
		t.Fatalf("first publish delivered to %d subscribers, want 3", n)
	}
	if n := b.Publish(alertFor(flowB, flowB.Dst)); n != 4 {
		t.Fatalf("second publish delivered to %d subscribers, want 4", n)
	}

	if len(all1) != 2 || len(all2) != 2 {
		t.Fatalf("unfiltered subscribers got %d/%d alerts, want 2 each", len(all1), len(all2))
	}
	if got := <-all1; got.Flow != flowA {
		t.Fatalf("delivery order broken: first alert %v", got.Flow)
	}
	if len(onlyA) != 1 || (<-onlyA).Flow != flowA {
		t.Fatalf("flow filter leaked")
	}
	if len(onlyB) != 1 || (<-onlyB).Flow != flowB {
		t.Fatalf("second flow filter leaked")
	}
	if len(onlyHost) != 1 || (<-onlyHost).Host != flowB.Dst {
		t.Fatalf("host filter leaked")
	}
}

func TestBusDropsOnFullBuffer(t *testing.T) {
	b := NewBus()
	ch := b.Subscribe(AlertFilter{})
	flow := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: 6}
	for i := 0; i < DefaultSubscriptionBuffer; i++ {
		if n := b.Publish(alertFor(flow, flow.Dst)); n != 1 {
			t.Fatalf("publish %d delivered to %d, want 1", i, n)
		}
	}
	if n := b.Publish(alertFor(flow, flow.Dst)); n != 0 {
		t.Fatalf("overflow publish delivered to %d, want 0", n)
	}
	if b.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", b.Dropped())
	}
	if len(ch) != DefaultSubscriptionBuffer {
		t.Fatalf("buffer holds %d, want the first %d alerts only", len(ch), DefaultSubscriptionBuffer)
	}
}

func TestBusClose(t *testing.T) {
	b := NewBus()
	flow := netsim.FlowKey{Src: netsim.IP(10, 0, 0, 1), Dst: netsim.IP(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: 6}
	ch := b.Subscribe(AlertFilter{})
	b.Publish(alertFor(flow, flow.Dst))
	b.Close()
	b.Close() // idempotent

	// Buffered alerts drain, then the channel reports closed.
	if _, ok := <-ch; !ok {
		t.Fatalf("buffered alert lost on close")
	}
	if _, ok := <-ch; ok {
		t.Fatalf("channel not closed")
	}
	// Publishing after close is discarded, not a panic.
	if n := b.Publish(alertFor(flow, flow.Dst)); n != 0 {
		t.Fatalf("publish after close delivered %d", n)
	}
	// Subscribing after close yields an already-closed channel.
	if _, ok := <-b.Subscribe(AlertFilter{}); ok {
		t.Fatalf("subscription on closed bus not closed")
	}
}

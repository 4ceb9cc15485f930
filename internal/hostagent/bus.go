package hostagent

import (
	"sync"

	"switchpointer/internal/netsim"
)

// AlertFilter selects which alerts a subscription receives. Zero-valued
// fields match everything, so the zero AlertFilter subscribes to all alerts.
type AlertFilter struct {
	// Flow restricts delivery to alerts for one flow (zero = any flow).
	Flow netsim.FlowKey
	// Host restricts delivery to alerts raised by one host (zero = any).
	Host netsim.IPv4
}

// Match reports whether the filter accepts the alert.
func (f AlertFilter) Match(a Alert) bool {
	if f.Flow != (netsim.FlowKey{}) && a.Flow != f.Flow {
		return false
	}
	if f.Host != 0 && a.Host != f.Host {
		return false
	}
	return true
}

// DefaultSubscriptionBuffer is the per-subscriber channel capacity.
const DefaultSubscriptionBuffer = 64

// Bus fans alerts out to subscribers. Publishing never blocks the
// simulation: each subscriber gets a buffered channel, and an alert that
// finds a subscriber's buffer full is dropped for that subscriber (counted
// in Dropped). Closing the bus closes every subscriber channel; late
// subscriptions on a closed bus receive an already-closed channel.
type Bus struct {
	mu      sync.Mutex
	subs    []*busSub
	closed  bool
	dropped uint64
}

type busSub struct {
	filter AlertFilter
	ch     chan Alert
}

// NewBus returns an empty alert bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a subscriber for alerts matching the filter, with a
// DefaultSubscriptionBuffer-slot channel.
func (b *Bus) Subscribe(f AlertFilter) <-chan Alert {
	ch := make(chan Alert, DefaultSubscriptionBuffer)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(ch)
		return ch
	}
	b.subs = append(b.subs, &busSub{filter: f, ch: ch})
	return ch
}

// Publish delivers the alert to every matching subscriber and reports how
// many received it. Full buffers drop rather than block.
func (b *Bus) Publish(a Alert) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	delivered := 0
	for _, s := range b.subs {
		if !s.filter.Match(a) {
			continue
		}
		select {
		case s.ch <- a:
			delivered++
		default:
			b.dropped++
		}
	}
	return delivered
}

// Dropped returns how many alert deliveries were lost to full buffers.
func (b *Bus) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Close shuts the bus down: every subscriber channel is closed after any
// buffered alerts drain, and future publishes are discarded. Close is
// idempotent.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.subs {
		close(s.ch)
	}
	b.subs = nil
}

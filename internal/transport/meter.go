// Package transport provides the workload engines that run on the simulated
// testbed: constant-rate and bursty UDP sources, a Reno-style TCP with slow
// start / AIMD / fast retransmit / RTO, and the throughput & inter-packet-gap
// meters the paper's figures are drawn from. The host agents' throughput
// trigger keeps a four-bucket window of its own (hostagent) instead: it
// reads two recent buckets, never a whole series.
package transport

import (
	"switchpointer/internal/netsim"
	"switchpointer/internal/simtime"
)

// Meter accumulates bytes into fixed time buckets and records inter-arrival
// gaps. It keeps every bucket since time 0, for the readers that need whole
// series: the per-flow receiver meters (Fig 2 throughput and inter-packet
// arrival plots, the scenarios' victim meters) and the per-port switch
// meters (Fig 3, FlowMeters). Its memory grows with the run, so it is not
// for per-flow state that lives as long as a host.
type Meter struct {
	interval simtime.Time
	buckets  []uint64
	pkts     []uint32
	maxGap   []simtime.Time
	last     simtime.Time
	hasLast  bool
	total    uint64
}

// NewMeter creates a meter with the given bucket width (e.g. 1 ms, the
// paper's trigger granularity).
func NewMeter(interval simtime.Time) *Meter {
	if interval <= 0 {
		panic("transport: non-positive meter interval")
	}
	return &Meter{interval: interval}
}

// Record accounts bytes arriving at time now. Extending into a new bucket
// is amortized allocation-free: the series grow geometrically and start with
// enough room that short-lived meters never regrow.
func (m *Meter) Record(bytes int, now simtime.Time) {
	idx := int(now / m.interval)
	if cap(m.buckets) <= idx {
		n := 2 * (idx + 1)
		if n < 64 {
			n = 64
		}
		m.buckets = append(make([]uint64, 0, n), m.buckets...)
		m.pkts = append(make([]uint32, 0, n), m.pkts...)
		m.maxGap = append(make([]simtime.Time, 0, n), m.maxGap...)
	}
	for len(m.buckets) <= idx {
		m.buckets = append(m.buckets, 0)
		m.pkts = append(m.pkts, 0)
		m.maxGap = append(m.maxGap, 0)
	}
	m.buckets[idx] += uint64(bytes)
	m.pkts[idx]++
	m.total += uint64(bytes)
	if m.hasLast {
		gap := now - m.last
		if gap > m.maxGap[idx] {
			m.maxGap[idx] = gap
		}
	}
	m.last = now
	m.hasLast = true
}

// TotalBytes returns all bytes recorded.
func (m *Meter) TotalBytes() uint64 { return m.total }

// Buckets returns the number of buckets touched so far.
func (m *Meter) Buckets() int { return len(m.buckets) }

// BytesAt returns the byte count of bucket i (0 beyond the series).
func (m *Meter) BytesAt(i int) uint64 {
	if i < 0 || i >= len(m.buckets) {
		return 0
	}
	return m.buckets[i]
}

// GbpsAt returns the average throughput of bucket i in Gbit/s.
func (m *Meter) GbpsAt(i int) float64 {
	return float64(m.BytesAt(i)) * 8 / float64(m.interval)
}

// GbpsSeries returns the throughput series up to bucket n (padding with
// zeros), in Gbit/s per bucket.
func (m *Meter) GbpsSeries(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = m.GbpsAt(i)
	}
	return out
}

// MaxGapAt returns the largest inter-arrival gap observed within bucket i.
func (m *Meter) MaxGapAt(i int) simtime.Time {
	if i < 0 || i >= len(m.maxGap) {
		return 0
	}
	return m.maxGap[i]
}

// MaxGap returns the largest gap across the whole series.
func (m *Meter) MaxGap() simtime.Time {
	var g simtime.Time
	for _, v := range m.maxGap {
		if v > g {
			g = v
		}
	}
	return g
}

// FlowMeters tracks one meter per flow at a switch port's transmit hook
// (AttachToPort).
type FlowMeters struct {
	interval simtime.Time
	meters   map[netsim.FlowKey]*Meter
}

// NewFlowMeters creates an empty per-flow meter set.
func NewFlowMeters(interval simtime.Time) *FlowMeters {
	return &FlowMeters{interval: interval, meters: make(map[netsim.FlowKey]*Meter)}
}

// Record accounts a packet to its flow's meter.
func (f *FlowMeters) Record(p *netsim.Packet, now simtime.Time) {
	m := f.meters[p.Flow]
	if m == nil {
		m = NewMeter(f.interval)
		f.meters[p.Flow] = m
	}
	m.Record(p.Size, now)
}

// Meter returns the meter for a flow, or nil.
func (f *FlowMeters) Meter(flow netsim.FlowKey) *Meter { return f.meters[flow] }

// AttachToPort installs the meter set as the port's transmit observer. This
// is how "throughput of flow A-F at S1" (Fig 3) is measured.
func (f *FlowMeters) AttachToPort(pt *netsim.Port) {
	prev := pt.OnTransmit
	pt.OnTransmit = func(p *netsim.Packet, now simtime.Time) {
		if prev != nil {
			prev(p, now)
		}
		f.Record(p, now)
	}
}

// Package simtime provides the virtual-time base for the SwitchPointer
// simulator: a nanosecond-resolution Time type, duration helpers, and
// per-device clocks with bounded drift.
//
// All SwitchPointer experiments run in virtual time so that queueing delays,
// epoch boundaries and diagnosis latencies are deterministic and reproducible.
// Device clocks (switches, hosts) are modelled as the true virtual time plus a
// fixed offset bounded by the network-wide drift bound ε, which is exactly the
// asynchrony model of §4.2.1 of the paper.
package simtime

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. The zero Time is the simulation start.
type Time int64

// Common durations expressed in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual time span into a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Milliseconds reports t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with millisecond precision, e.g. "13.250ms".
func (t Time) String() string { return fmt.Sprintf("%.3fms", t.Milliseconds()) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Add returns t shifted by d virtual nanoseconds.
func (t Time) Add(d Time) Time { return t + d }

// Sub returns the span t−u.
func (t Time) Sub(u Time) Time { return t - u }

// Epoch identifies one switch epoch (a contiguous α-sized slice of a device's
// local time). EpochIDs are what switches embed into packet headers.
type Epoch int64

// EpochOf returns the epoch that local time t falls into for epoch size alpha.
// alpha must be positive.
func EpochOf(t Time, alpha Time) Epoch {
	if alpha <= 0 {
		panic("simtime: non-positive epoch size")
	}
	if t < 0 {
		// Clock offsets may push local time slightly below zero near the
		// simulation start; floor-divide so epochs stay consistent.
		return Epoch((t - alpha + 1) / alpha)
	}
	return Epoch(t / alpha)
}

// EpochStart returns the local time at which epoch e begins.
func EpochStart(e Epoch, alpha Time) Time { return Time(e) * alpha }

// EpochRange is a closed interval of epochs [Lo, Hi]. It is the unit the
// analyzer uses when asking a switch for pointers, and what the host-side
// decoder produces when extrapolating epochs across a path (§4.2.1).
type EpochRange struct {
	Lo, Hi Epoch
}

// Contains reports whether e falls inside the range.
func (r EpochRange) Contains(e Epoch) bool { return e >= r.Lo && e <= r.Hi }

// Overlaps reports whether the two ranges share at least one epoch.
func (r EpochRange) Overlaps(o EpochRange) bool { return r.Lo <= o.Hi && o.Lo <= r.Hi }

// Union returns the smallest range covering both r and o.
func (r EpochRange) Union(o EpochRange) EpochRange {
	if o.Lo < r.Lo {
		r.Lo = o.Lo
	}
	if o.Hi > r.Hi {
		r.Hi = o.Hi
	}
	return r
}

// Len returns the number of epochs in the range.
func (r EpochRange) Len() int {
	if r.Hi < r.Lo {
		return 0
	}
	return int(r.Hi-r.Lo) + 1
}

// String formats the range as "[lo,hi]".
func (r EpochRange) String() string { return fmt.Sprintf("[%d,%d]", r.Lo, r.Hi) }

// Clock models one device's local clock: true virtual time plus a fixed
// offset. In a datacenter the offset between any pair of devices is bounded
// (|offset| ≤ ε/2 against true time gives pairwise drift ≤ ε), which is the
// assumption SwitchPointer exploits to bound epoch uncertainty.
type Clock struct {
	offset Time
}

// NewClock returns a clock with the given fixed offset from true time.
func NewClock(offset Time) *Clock { return &Clock{offset: offset} }

// Local converts true virtual time into this device's local time.
func (c *Clock) Local(now Time) Time { return now + c.offset }

// EpochAt returns the device-local epoch at true time now for epoch size alpha.
func (c *Clock) EpochAt(now Time, alpha Time) Epoch { return EpochOf(c.Local(now), alpha) }

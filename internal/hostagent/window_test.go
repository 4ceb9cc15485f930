package hostagent

import (
	"math/rand/v2"
	"slices"
	"testing"

	"switchpointer/internal/simtime"
	"switchpointer/internal/transport"
)

// windowTimes returns a sorted run of packet arrival times for seed: bursts
// of packets inside one bucket, runs of one packet per bucket or so, idle
// gaps of five to forty buckets (longer than the window), and on odd seeds
// a first packet thousands of buckets into the run.
func windowTimes(rng *rand.Rand, interval simtime.Time) []simtime.Time {
	now := simtime.Time(rng.Int64N(int64(interval)))
	if rng.IntN(2) == 1 {
		now += simtime.Time(1000+rng.IntN(4000)) * interval
	}
	var times []simtime.Time
	for range 40 {
		switch rng.IntN(3) {
		case 0: // a burst within one bucket
			end := (now/interval + 1) * interval
			for range 1 + rng.IntN(30) {
				if now >= end {
					break
				}
				times = append(times, now)
				now += simtime.Time(rng.Int64N(int64(end-now)/4 + 1))
			}
		case 1: // a steady run, about a packet a bucket
			for range 1 + rng.IntN(12) {
				times = append(times, now)
				now += interval/2 + simtime.Time(rng.Int64N(int64(interval)))
			}
		case 2: // an idle gap longer than the window
			now += simtime.Time(5+rng.IntN(36)) * interval
		}
	}
	if len(times) == 0 {
		times = append(times, now)
	}
	return times
}

// TestRateWindowMatchesMeter is the window's model test: transport.Meter,
// which keeps every bucket, is the oracle. Packets arrive at random times,
// and a trigger tick every interval from the first packet on reads the two
// buckets checkTriggers reads, completed-1 and completed, after every packet
// at or before the tick. Each read must equal the meter's GbpsAt float for
// float.
func TestRateWindowMatchesMeter(t *testing.T) {
	for seed := range uint64(300) {
		rng := rand.New(rand.NewPCG(seed, 55))
		interval := []simtime.Time{simtime.Millisecond, 300 * simtime.Microsecond}[seed%2]
		times := windowTimes(rng, interval)
		if !slices.IsSorted(times) {
			t.Fatalf("seed %d: times out of order", seed)
		}
		m := transport.NewMeter(interval)
		var w rateWindow
		next, reads := 0, 0
		end := times[len(times)-1] + 4*interval
		for now := times[0] + simtime.Time(rng.Int64N(int64(interval))); now <= end; now += interval {
			for ; next < len(times) && times[next] <= now; next++ {
				size := 64 + rng.IntN(1437)
				m.Record(size, times[next])
				w.record(size, int(times[next]/interval))
			}
			completed := int(now/interval) - 1
			if completed < 1 {
				continue
			}
			for _, i := range []int{completed - 1, completed} {
				if got, want := w.gbps(i, interval), m.GbpsAt(i); got != want {
					t.Fatalf("seed %d, tick at %v: bucket %d reads %v Gbit/s, the meter %v", seed, now, i, got, want)
				}
				if m.BytesAt(i) != 0 {
					reads++
				}
			}
		}
		if next != len(times) {
			t.Fatalf("seed %d: %d of %d packets recorded", seed, next, len(times))
		}
		if reads == 0 {
			t.Fatalf("seed %d: no tick read a bucket that held bytes", seed)
		}
	}
}

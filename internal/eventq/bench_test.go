package eventq

import (
	"fmt"
	"math/rand"
	"testing"

	"switchpointer/internal/simtime"
)

// BenchmarkEngineStanding times Step on an engine holding a standing
// population of self-rescheduling events: 16, 170 (the mean pending count
// of the loadimbalance n = 96 replay) and 13 000 (what a priority replay
// held when every TCP segment left a cancelled RTO timer queued; it holds
// 13 since the timer re-arms lazily). Each event reschedules
// itself after a delay drawn from the simulator's mix, as the sim-replay
// benchmark's eventq rung draws it: mostly 1–50 µs serialization and
// propagation delays, one in sixteen a 1–10 ms trigger or epoch timer.
func BenchmarkEngineStanding(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]simtime.Time, 4096)
	for i := range delays {
		delays[i] = simtime.Time(1+rng.Intn(50)) * simtime.Microsecond
		if rng.Intn(16) == 0 {
			delays[i] = simtime.Time(1+rng.Intn(10)) * simtime.Millisecond
		}
	}
	for _, standing := range []int{16, 170, 13_000} {
		b.Run(fmt.Sprintf("pending=%d", standing), func(b *testing.B) {
			e := New()
			next := 0
			for j := 0; j < standing; j++ {
				var tick Func
				tick = func() {
					next++
					e.After(delays[next%len(delays)], tick)
				}
				e.At(simtime.Time(j)*simtime.Microsecond, tick)
			}
			// Let the population settle into the delay mix.
			for i := 0; i < 4*standing; i++ {
				e.Step()
			}
			b.ReportAllocs()
			for b.Loop() {
				e.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}

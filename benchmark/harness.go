package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// wallNow is the benchmark's one wall-clock read; every latency, span and
// set-up time is a difference of two of its values.
func wallNow() time.Time {
	//splint:wallclock the benchmark exists to measure real elapsed time
	return time.Now()
}

// counters is a point-in-time read of the process-wide cost counters an
// operation is charged against. Reading them takes no stop-the-world pause
// (runtime/metrics, getrusage), so they are read around every operation and
// the harness's own work between operations — the oracle check — is charged
// to nobody.
type counters struct {
	allocs, bytes uint64
	cpuNs         int64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readCounters() counters {
	metrics.Read(counterSamples)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		// Mallocs as testing.B counts them: tiny allocations included.
		allocs: counterSamples[0].Value.Uint64() + counterSamples[1].Value.Uint64(),
		bytes:  counterSamples[2].Value.Uint64(),
		cpuNs:  ru.Utime.Nano() + ru.Stime.Nano(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{allocs: c.allocs - o.allocs, bytes: c.bytes - o.bytes, cpuNs: c.cpuNs - o.cpuNs}
}

func (c *counters) add(o counters) {
	c.allocs += o.allocs
	c.bytes += o.bytes
	c.cpuNs += o.cpuNs
}

// heapLiveMB is the resident state: HeapAlloc after two forced collections
// (the second frees what sync.Pool victim caches kept alive over the first).
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of vals by linear interpolation between
// order statistics; 0 for an empty sample. vals is sorted in place.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vals[lo] + (vals[hi]-vals[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// window is what one closed-loop measured window observed.
type window struct {
	latNs       []float64 // every operation's latency, pooled over the rounds
	roundMedian []float64 // one median per round
	cost        counters  // charged to the operations alone
	checkNs     int64     // spent verifying answers, outside every latency
	wallNs      int64
	attempted   int
	failed      int
	firstErr    error
	gcCycles    uint32
	gcPauseNs   uint64
}

// opFunc is one operation of a workload; checkFunc verifies its answer
// against the oracle outside the timed interval.
type (
	opFunc    func(ctx context.Context) (any, error)
	checkFunc func(res any) error
)

// runWindow drives op in a closed loop with one client — the operator CLI,
// the alert pipeline and every experiment wait for each reply — for total,
// split into rounds. after, when set, runs after each checked operation (the
// traced run folds the operation's spans there).
func runWindow(ctx context.Context, total time.Duration, rounds int, op opFunc, check checkFunc, after func()) window {
	var w window
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	begin := wallNow()
	for r := 0; r < rounds; r++ {
		deadline := begin.Add(total * time.Duration(r+1) / time.Duration(rounds))
		first := len(w.latNs)
		for done := false; !done; {
			c0 := readCounters()
			t0 := wallNow()
			res, err := op(ctx)
			t1 := wallNow()
			w.cost.add(readCounters().sub(c0))
			w.latNs = append(w.latNs, float64(t1.Sub(t0)))
			w.attempted++
			if err == nil {
				err = check(res)
			}
			if err != nil {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = err
				}
			}
			if after != nil {
				after()
			}
			t2 := wallNow()
			w.checkNs += int64(t2.Sub(t1))
			done = !t2.Before(deadline)
		}
		w.roundMedian = append(w.roundMedian, median(append([]float64(nil), w.latNs[first:]...)))
	}
	w.wallNs = int64(wallNow().Sub(begin))
	runtime.ReadMemStats(&ms1)
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return w
}

func (w *window) p(q float64) float64 {
	return quantile(append([]float64(nil), w.latNs...), q) / 1e6
}

// roundSpreadPct is (max − min) of the round medians over their median: how
// much the same code disagreed with itself inside one run.
func (w *window) roundSpreadPct() float64 {
	if len(w.roundMedian) == 0 {
		return 0
	}
	lo, hi := w.roundMedian[0], w.roundMedian[0]
	for _, m := range w.roundMedian {
		lo, hi = math.Min(lo, m), math.Max(hi, m)
	}
	return (hi - lo) / median(append([]float64(nil), w.roundMedian...)) * 100
}

// endToEndMetrics turns an untraced window into the end-to-end metrics.
// Throughput divides by the time spent inside operations: the oracle check
// between two operations is the harness's cost, not the system's.
func (w *window) endToEndMetrics(heapMB, setupS float64) map[string]float64 {
	ops := float64(w.attempted)
	var opNs float64
	for _, l := range w.latNs {
		opNs += l
	}
	return map[string]float64{
		"latency_p50_ms":   w.p(0.50),
		"latency_p90_ms":   w.p(0.90),
		"throughput_ops_s": ops / (opNs / 1e9),
		"cpu_ms_per_op":    float64(w.cost.cpuNs) / 1e6 / ops,
		"allocs_per_op":    float64(w.cost.allocs) / ops,
		"alloc_kb_per_op":  float64(w.cost.bytes) / 1024 / ops,
		"heap_live_mb":     heapMB,
		"setup_s":          setupS,
	}
}

// rung times fn(i) called directly, outside any workload: batches of batch
// calls, the median batch's ns per call and the allocations per call over
// all batches. Rungs measure layers whose calls happen inside the simulator
// or behind a handler, at the workload's geometry.
func rung(quick bool, batch int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	batches := 15
	if quick {
		batches, batch = 3, batch/20+1
	}
	i := 0                      // counts every call, the warm-up's too: fn may need it to only grow
	for ; i < batch/10+1; i++ { // warm caches and lazy structures
		fn(i)
	}
	per := make([]float64, 0, batches)
	c0 := readCounters()
	for b := 0; b < batches; b++ {
		t0 := wallNow()
		for n := 0; n < batch; n++ {
			fn(i)
			i++
		}
		per = append(per, float64(wallNow().Sub(t0))/float64(batch))
	}
	allocs := readCounters().sub(c0).allocs
	return median(per), float64(allocs) / float64(batches*batch)
}

// result is one run of one workload: what the last output line carries.
type result struct {
	Trace     bool
	Attempted int
	Failed    int
	Err       error // first failed operation, for the human-readable output
	Metrics   map[string]float64
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

func (r *result) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// Command benchmark is the repo's real-cost benchmark: four workloads that
// stress different layers, measured end to end with tracing off and layer by
// layer in a separate traced run, every answer verified against an oracle.
//
//	go run ./benchmark                                  the full run: every workload, both modes
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1   one run (the driver's form)
//	go run ./benchmark -compare a.json b.json           judge two full runs' -out files
//
// benchmark/README.md explains the workloads, the metrics and the trace dump.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// buildDir is where the benchmark keeps what it writes: inside the checkout,
// ignored by git.
const buildDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rounds   int
	traceOut string
	scratch  string // where a workload keeps on-disk state; inside the checkout
	quick    bool   // smoke test only: see params.quick
	setups   int    // set-ups timed per untraced run; setup_s is their median
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 3, scratch: filepath.Join(buildDir, "scratch")}
	var traceFlag int
	var out string
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (sim-replay, diag-inmem, diag-fanout, diag-heavy) and print its result as the last line; default: the full run")
	fs.Int64Var(&cfg.seed, "seed", 1, "the only randomness: every scenario's clock seed and diag-heavy's record generator")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured window of one run, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: tracing off, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.IntVar(&cfg.rounds, "rounds", 3, "rounds the untraced window is split into (bench.round_spread_pct compares their medians)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "where a traced run writes its spans (default "+buildDir+"/trace-<workload>.json)")
	fs.StringVar(&out, "out", "", "full run: also write the results as JSON, the input of -compare")
	fs.BoolVar(&compare, "compare", false, "compare two -out files given as arguments; exit 1 on any worse metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag != 0
	if cfg.seconds <= 0 || cfg.rounds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -rounds must be positive")
		return 2
	}

	switch {
	case compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case cfg.workload == "":
		return fullRun(cfg, out, stdout, stderr)
	}

	res, err := runWorkload(cfg, stdout)
	if err != nil {
		// No result line: the driver must not mistake a broken run for a
		// measured one.
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res.wire())
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// wireResult is the last line of a run's standard output.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) wire() wireResult {
	w := wireResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]wireMetric)}
	for _, d := range r.defs() {
		w.Metrics[d.Name] = wireMetric{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return w
}

// runWorkload is one run of one workload: set-up, warm-up, the measured
// window, and for a traced run the traced window and the rungs. It prints
// every metric by name with its unit.
func runWorkload(cfg config, stdout io.Writer) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload (want one of %v)", workloadNames())
	}
	ctx := context.Background()
	p := params{seed: cfg.seed, scratch: cfg.scratch, quick: cfg.quick}
	total := time.Duration(cfg.seconds * float64(time.Second))
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %v GOMAXPROCS %d GOGC %s %s\n",
		def.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), envOr("GOGC", "100"), runtime.Version())

	// Set-up, timed to the end of the first verified operation. An untraced
	// run sets up several times and reports the median; all but the last
	// are torn down again.
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var inst *instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			runtime.GC()
		}
		t0 := wallNow()
		var err error
		if inst, err = def.setup(p); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res, err := inst.op(ctx)
		if err == nil {
			err = inst.check(res)
		}
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("first operation: %w", err)
		}
		setupS = append(setupS, wallNow().Sub(t0).Seconds())
	}
	defer inst.close()
	heapMB := heapLiveMB()

	// Warm-up: keep-alive pool, memoised BySwitch, lazy structures.
	warm := min(total*15/100, 3*time.Second)
	runWindow(ctx, warm, 1, inst.op, inst.check, nil)

	res := &result{Trace: cfg.trace}
	if !cfg.trace {
		w := runWindow(ctx, total, cfg.rounds, inst.op, inst.check, nil)
		res.Attempted, res.Failed, res.Err = w.attempted, w.failed, w.firstErr
		res.Metrics = w.endToEndMetrics(heapMB, median(setupS))
		res.print(stdout)
		return res, nil
	}

	// A traced run: an untraced window first — the reference the tracing
	// overhead is measured against — then the instrumented twin, then rungs.
	ref := runWindow(ctx, total*4/10, cfg.rounds, inst.op, inst.check, nil)
	t := newTracer()
	tracedOp, closeTraced, err := inst.traced(t)
	if err != nil {
		return nil, fmt.Errorf("traced assembly: %w", err)
	}
	defer closeTraced()
	runWindow(ctx, warm/2, 1, tracedOp, inst.check, t.fold)
	t.reset()
	if inst.mark != nil {
		inst.mark()
	}
	tw := runWindow(ctx, total*6/10, 1, tracedOp, inst.check, t.fold)

	res.Attempted, res.Failed = ref.attempted+tw.attempted, ref.failed+tw.failed
	if res.Err = ref.firstErr; res.Err == nil {
		res.Err = tw.firstErr
	}
	m := make(map[string]float64, len(perLayer))
	if err := inst.layers(t, m); err != nil {
		return nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	m["bench.ops"] = float64(tw.attempted)
	if len(ref.latNs) >= 1000 { // at least ten samples beyond the percentile
		m["bench.latency_p99_ms"] = ref.p(0.99)
	}
	m["bench.round_spread_pct"] = ref.roundSpreadPct()
	m["bench.check_us_per_op"] = float64(ref.checkNs) / 1e3 / float64(ref.attempted)
	m["bench.trace_overhead_pct"] = (tw.p(0.5) - ref.p(0.5)) / ref.p(0.5) * 100
	m["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["runtime.gc_cycles"] = float64(ref.gcCycles) / (float64(ref.wallNs) / 1e9)
	if ref.gcCycles > 0 {
		m["runtime.gc_pause_ms"] = float64(ref.gcPauseNs) / 1e6 / float64(ref.gcCycles)
	}
	if codecUs := m["rpc.json_encode_us_per_op"] + m["rpc.json_decode_us_per_op"]; codecUs > 0 {
		// The binary-codec item's entry condition: JSON's share of the
		// untraced operation's CPU.
		m["rpc.json_share_pct"] = codecUs / (float64(ref.cost.cpuNs) / 1e3 / float64(ref.attempted)) * 100
	}
	res.Metrics = m

	traceOut := cfg.traceOut
	if traceOut == "" {
		traceOut = filepath.Join(buildDir, "trace-"+def.name+".json")
	}
	if err := t.dump(traceOut, def.name, cfg.seed); err != nil {
		return nil, fmt.Errorf("trace dump: %w", err)
	}
	fmt.Fprintf(stdout, "# traced %d operations (p50 %.4f ms against %.4f ms untraced); first %d written to %s\n",
		tw.attempted, tw.p(0.5), ref.p(0.5), t.keptOps, traceOut)
	res.print(stdout)
	return res, nil
}

func (r *result) print(w io.Writer) {
	for _, d := range r.defs() {
		fmt.Fprintf(w, "%-38s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "%-38s %16d of %d\n", "failed", r.Failed, r.Attempted)
	if r.Err != nil {
		fmt.Fprintf(w, "# first failure: %v\n", r.Err)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// fullResults is a full run's -out file: what -compare reads.
type fullResults struct {
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string]workloadOut `json:"workloads"`
}

type workloadOut struct {
	EndToEnd wireResult `json:"end_to_end"`
	PerLayer wireResult `json:"per_layer"`
}

// fullRun executes every workload in both modes, each run in a process of
// its own so one workload's heap cannot change another's GC pacing.
func fullRun(cfg config, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	all := fullResults{Seed: cfg.seed, Seconds: cfg.seconds, Workloads: make(map[string]workloadOut)}
	failed := false
	for _, w := range workloads {
		var wo workloadOut
		for _, mode := range []struct {
			trace string
			into  *wireResult
		}{{"0", &wo.EndToEnd}, {"1", &wo.PerLayer}} {
			args := []string{"-workload", w.name, "-trace", mode.trace,
				"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-rounds", strconv.Itoa(cfg.rounds)}
			if cfg.traceOut != "" {
				args = append(args, "-trace-out", cfg.traceOut+"."+w.name)
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s -trace %s: %v\n", w.name, mode.trace, err)
				return 1
			}
			body, last := splitLastLine(raw)
			stdout.Write(body) //nolint:errcheck // a closed stdout has no one left to tell
			if err := json.Unmarshal(last, mode.into); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s -trace %s: result line: %v\n", w.name, mode.trace, err)
				return 1
			}
			failed = failed || !mode.into.Correct
		}
		all.Workloads[w.name] = wo
		fmt.Fprintln(stdout)
	}
	if out != "" {
		raw, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(out, raw, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stderr, "benchmark: some operations failed or returned a wrong answer")
		return 1
	}
	return 0
}

// splitLastLine separates a run's human-readable output from its last line.
func splitLastLine(raw []byte) (body, last []byte) {
	end := len(raw)
	for end > 0 && raw[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && raw[start-1] != '\n' {
		start--
	}
	return raw[:start], raw[start:end]
}

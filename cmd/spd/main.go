// Command spd is the SwitchPointer daemon: one binary that runs each role
// of a deployed cluster — host agents, switch agents, and the analyzer
// service — over the JSON/HTTP wire binding, so a whole diagnosis runs as a
// distributed system (the paper's flask topology, minus flask).
//
// Every daemon rebuilds the named deterministic scenario and plays it to
// its horizon, so separate processes agree byte-for-byte on all agent
// state; each then serves its own slice of the cluster:
//
//	spd host     -scenario redlights -listen 127.0.0.1:7641
//	spd switch   -scenario redlights -listen 127.0.0.1:7642
//	spd analyzer -scenario redlights -listen 127.0.0.1:7643 \
//	             -hosts http://127.0.0.1:7641 -switches http://127.0.0.1:7642
//	spd wait     -url http://127.0.0.1:7643/healthz -timeout 30s
//
// The host daemon serves every host agent under /hosts/<ip>/ (the
// rpc.NewHostHandler routes below it) and the switch daemon every switch
// agent under /switches/<id>/ (rpc.NewSwitchHandler). The analyzer daemon
// reaches both only over HTTP (analyzer.RemoteDirectory +
// analyzer.RemoteHosts) and exposes the service plane: POST /diagnose (a
// cluster.QueryEnvelope, answered with the wire-form report), GET /stats
// (admission counters), GET /healthz. Every JSON route of every role is an
// rpc.Endpoint: wrong method 405, malformed or oversized body 400.
// Concurrent queries are bounded by the admission controller
// (-max-inflight/-max-queue/-queue-wait); overflow queues FIFO with
// per-alert-kind priority, and rejected/expired queries map to HTTP 429/503.
//
// Each role is mounted by one constructor (cluster.HostMux, SwitchMux,
// NewAnalyzerHandler) returning a *cluster.Service: the handler, the metric
// registry behind GET /metrics — spd adds spd_process_uptime_seconds and
// spd_build_info to it after mounting — and the flight recorder behind GET
// /traces, which the bootstrap records its one-span trace into.
//
// Point spctl at a running analyzer with `spctl -problem redlights -remote
// http://127.0.0.1:7643`. All daemons shut down gracefully on
// SIGINT/SIGTERM. `spd wait` polls a /healthz URL until the daemon reports
// state "live" — the readiness gate scripts use.
//
// State sync: every daemon serves the statesync plane — hosts expose GET
// /hosts/<ip>/snapshot (epoch-range-addressable record segments) and POST
// /hosts/<ip>/ingest (live record feed), switches GET
// /switches/<id>/snapshot (pointer + control store + MPH) — and a fresh
// daemon started with -bootstrap-from <peer-url> absorbs a live peer's
// state instead of replaying the scenario, serving queries the whole time
// (readiness syncing → live at /healthz).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"switchpointer/internal/buildinfo"
	"switchpointer/internal/cluster"
	"switchpointer/internal/hostagent"
	"switchpointer/internal/metrics"
	"switchpointer/internal/pointer"
	"switchpointer/internal/scenario"
	"switchpointer/internal/simtime"
	"switchpointer/internal/statesync"
	"switchpointer/internal/store"
	"switchpointer/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "host", "switch", "analyzer":
		err = serveCmd(cmd, args)
	case "wait":
		err = waitCmd(args)
	case "-version", "--version", "version":
		fmt.Printf("spd %s %s\n", buildinfo.Version, buildinfo.Go())
		return
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "spd: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `spd — the SwitchPointer cluster daemon

  spd host     -scenario NAME -listen ADDR [-m M -n N]
               [-bootstrap-from URL] [-hot-epochs H -max-records R -cold-dir DIR]
               [-compact-min-run N -compact-max-bytes B]
               [-tier-max-age E -tier-archive-dir DIR]
  spd switch   -scenario NAME -listen ADDR [-m M -n N] [-bootstrap-from URL]
  spd analyzer -scenario NAME -listen ADDR -hosts URL -switches URL
               [-m M -n N -max-inflight K -max-queue Q -queue-wait D]
               [-alert-pipeline -alert-dedup W -alert-rate R -alert-burst B]
  spd wait     -url URL [-timeout D]

Every role serves GET /metrics (Prometheus text) and GET /stats (JSON)
alongside its query plane. With -alert-pipeline, the analyzer enriches,
deduplicates, and rate-limits the scenario's raised alerts before admitting
the surviving diagnoses.

With -bootstrap-from, the daemon does NOT replay the scenario: it serves
immediately in the "syncing" readiness state, pulls the peer daemon's
state-sync snapshots in the background, and flips /healthz to "live" once
the bootstrap lands (spd wait polls for exactly that). Host daemons also
accept a live ingest feed at POST /hosts/<ip>/ingest throughout.

Scenarios: %v
`, cluster.ScenarioNames())
}

// serveCmd runs one daemon role to completion (SIGINT/SIGTERM).
func serveCmd(role string, args []string) error {
	fs := flag.NewFlagSet("spd "+role, flag.ExitOnError)
	var (
		scenarioName = fs.String("scenario", "redlights", "deterministic scenario to rebuild and serve")
		listen       = fs.String("listen", "127.0.0.1:0", "listen address")
		m            = fs.Int("m", 0, "burst flows (priority/microburst; 0 = default)")
		n            = fs.Int("n", 0, "servers (loadimbalance/topk; 0 = default)")
		ptrBackend   = fs.String("pointer-backend", "adaptive", "pointer slot backend: adaptive, dense, or bloom (must match across the cluster's daemons)")
		hostsURL     = fs.String("hosts", "", "analyzer: base URL of the host daemon")
		switchesURL  = fs.String("switches", "", "analyzer: base URL of the switch daemon")
		maxInflight  = fs.Int("max-inflight", 0, "analyzer: concurrent diagnosis bound (0 = default 4)")
		maxQueue     = fs.Int("max-queue", 0, "analyzer: admission queue depth (0 = default 64)")
		queueWait    = fs.Duration("queue-wait", 0, "analyzer: max queue wait before ErrExpired (0 = unbounded)")
		alertPipe    = fs.Bool("alert-pipeline", false, "analyzer: run the alert enrichment/dedup pipeline over the scenario's raised alerts, forwarding survivors into admission")
		alertDedup   = fs.Duration("alert-dedup", time.Second, "analyzer: pipeline dedup window on the alerts' virtual clock")
		alertRate    = fs.Float64("alert-rate", 0, "analyzer: sustained pipeline forward rate per virtual second (0 = unlimited)")
		alertBurst   = fs.Int("alert-burst", 0, "analyzer: pipeline token-bucket burst (default 1 when -alert-rate is set)")
		bootstrap    = fs.String("bootstrap-from", "", "host/switch: base URL of a live peer daemon to bootstrap state from (skips scenario replay)")
		hotEpochs    = fs.Int("hot-epochs", 0, "host: retention age bound in epochs (0 = no age eviction)")
		maxRecords   = fs.Int("max-records", 0, "host: retention resident-record cap (0 = unbounded)")
		coldDir      = fs.String("cold-dir", "", "host: directory for the evicted-segment logs (empty = in-memory logs when retention is on)")
		compactRun   = fs.Int("compact-min-run", 0, "host: compact runs of at least this many small cold segments (0 = no compaction)")
		compactBytes = fs.Int("compact-max-bytes", 0, "host: segments larger than this never join a compaction run (0 = default 1 MiB)")
		tierMaxAge   = fs.Int("tier-max-age", 0, "host: tier out cold segments older than this many epochs (0 = no tiering)")
		tierArchive  = fs.String("tier-archive-dir", "", "host: archive tiered payloads here (empty = delete them)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	backend, err := pointer.ParseBackend(*ptrBackend)
	if err != nil {
		return err
	}
	s, err := cluster.BuildScenarioOpt(*scenarioName, *m, *n, scenario.Options{PointerBackend: backend})
	if err != nil {
		return err
	}
	// Retention flags must never be silently inert: reject every
	// combination that would leave the operator believing the store is
	// bounded (or a cold log armed) when nothing runs.
	retentionFlags := *hotEpochs > 0 || *maxRecords > 0 || *coldDir != ""
	coldTierFlags := *compactRun > 0 || *compactBytes > 0 || *tierMaxAge > 0 || *tierArchive != ""
	if coldTierFlags {
		if role != "host" {
			return errors.New("-compact-*/-tier-* apply to the host role only")
		}
		if !retentionFlags {
			return errors.New("-compact-*/-tier-* need retention armed (-hot-epochs/-max-records): without eviction there is no cold log to maintain")
		}
		if *compactBytes > 0 && *compactRun <= 0 {
			return errors.New("-compact-max-bytes needs -compact-min-run: compaction is off without a run length")
		}
		if *tierArchive != "" && *tierMaxAge <= 0 {
			return errors.New("-tier-archive-dir needs -tier-max-age: tiering is off without an age bound")
		}
	}
	if retentionFlags {
		if role != "host" {
			return errors.New("-hot-epochs/-max-records/-cold-dir apply to the host role only")
		}
		if *bootstrap != "" {
			// The retention sweep runs on the scenario-replay engine timer;
			// a bootstrapped daemon never replays.
			return errors.New("-hot-epochs/-max-records/-cold-dir cannot combine with -bootstrap-from: retention sweeps run during scenario replay, which -bootstrap-from skips")
		}
		if *hotEpochs <= 0 && *maxRecords <= 0 {
			return errors.New("-cold-dir needs -hot-epochs and/or -max-records: without an eviction bound nothing is ever flushed to the cold log")
		}
	}
	if role == "host" && retentionFlags {
		// Retention must be armed before the scenario plays: the sweep runs
		// on the engine timer during the replay, so the daemon comes up with
		// a bounded resident set and an indexed cold log per host — queries
		// past the hot window transparently consult it (cold read-back).
		// Compaction and tiering ride the same weak timer, so the cold log
		// stays merged and age-bounded as evictions accumulate.
		net := s.Testbed.Net
		for ip, ag := range s.Testbed.HostAgents {
			dir := ""
			if *coldDir != "" {
				dir = filepath.Join(*coldDir, ip.String())
			}
			seglog, err := statesync.NewSegmentLog(dir)
			if err != nil {
				return err
			}
			ag.EnableRetention(store.Retention{
				HotEpochs:  *hotEpochs,
				Alpha:      s.Testbed.Opt.Alpha,
				MaxRecords: *maxRecords,
				Cold:       seglog,
			}, 0)
			logErr := func(err error) { fmt.Fprintln(os.Stderr, "spd host: cold-tier sweep:", err) }
			if *compactRun > 0 {
				c := &statesync.Compactor{
					Log:     seglog,
					Policy:  statesync.CompactPolicy{MinRun: *compactRun, MaxSegmentBytes: *compactBytes},
					OnError: logErr,
				}
				net.Engine.EveryWeak(10*simtime.Millisecond, func() {
					_, _ = c.Run(context.Background())
				})
			}
			if *tierMaxAge > 0 {
				archive := ""
				if *tierArchive != "" {
					archive = filepath.Join(*tierArchive, ip.String())
				}
				t := &statesync.Tier{
					Log: seglog,
					Policy: statesync.TierPolicy{
						MaxAgeEpochs: *tierMaxAge,
						Alpha:        s.Testbed.Opt.Alpha,
						ArchiveDir:   archive,
					},
					OnError: logErr,
				}
				net.Engine.EveryWeak(10*simtime.Millisecond, func() {
					_, _ = t.Sweep(context.Background(), net.Now())
				})
			}
		}
		fmt.Fprintf(os.Stderr, "spd host: retention armed (hot-epochs %d, max-records %d, cold-dir %q, compact-min-run %d, tier-max-age %d)\n",
			*hotEpochs, *maxRecords, *coldDir, *compactRun, *tierMaxAge)
	}

	// With -bootstrap-from the scenario is NOT replayed: the daemon serves
	// immediately in the syncing state and absorbs the peer's snapshots in
	// the background; without it, state comes from the deterministic replay
	// and the daemon is live from the first request.
	// The alert pipeline consumes the scenario's own raised alerts, so the
	// subscription must exist before the replay plays them out. The buffer
	// is sized to hold any scenario's full alert volume.
	var alerts <-chan hostagent.Alert
	if *alertPipe {
		if role != "analyzer" {
			return errors.New("-alert-pipeline applies to the analyzer role only")
		}
		alerts = s.Testbed.SubscribeBuffered(hostagent.AlertFilter{}, 4096)
	}

	var rd *statesync.Readiness
	if *bootstrap != "" {
		if role == "analyzer" {
			return errors.New("analyzer holds no telemetry; -bootstrap-from applies to host/switch roles")
		}
		rd = statesync.NewReadiness(false)
		fmt.Fprintf(os.Stderr, "spd %s: bootstrapping from %s (serving in syncing state)\n", role, *bootstrap)
	} else {
		end := s.Run()
		fmt.Fprintf(os.Stderr, "spd %s: scenario %q played to %v\n", role, *scenarioName, end)
	}

	// Every role's mux builds its own metric registry and bounded flight
	// recorder (served at GET /metrics and GET /traces) and returns them; the
	// process-level families are added to the registry after mounting.
	var svc *cluster.Service
	switch role {
	case "host":
		svc = cluster.HostMux(s.Testbed, rd)
		fmt.Fprintf(os.Stderr, "spd host: serving %d host agents under /hosts/<ip>/\n", len(s.Testbed.HostAgents))
	case "switch":
		svc = cluster.SwitchMux(s.Testbed, rd)
		fmt.Fprintf(os.Stderr, "spd switch: serving %d switch agents under /switches/<id>/\n", len(s.Testbed.SwitchAgents))
	case "analyzer":
		if *hostsURL == "" || *switchesURL == "" {
			return errors.New("analyzer role needs -hosts and -switches URLs")
		}
		a, err := cluster.NewRemoteAnalyzer(s.Testbed,
			cluster.HostURLs(*hostsURL, s.Testbed),
			cluster.SwitchURLs(*switchesURL, s.Testbed), nil)
		if err != nil {
			return err
		}
		ad := cluster.NewAdmission(a, cluster.AdmissionConfig{
			MaxInFlight: *maxInflight,
			MaxQueued:   *maxQueue,
			QueueWait:   *queueWait,
		})
		ad.Flight = trace.NewFlightRecorder(role, 0)
		ad.Flight.SetPeers(map[string]string{"hosts": *hostsURL, "switches": *switchesURL})
		svc = cluster.NewAnalyzerHandler(ad)
		if alerts != nil {
			pipe := cluster.NewAlertPipeline(s.Testbed.Topo, cluster.PipelineConfig{
				DedupWindow: simtime.Time(*alertDedup),
				Rate:        *alertRate,
				Burst:       *alertBurst,
			}, func(ea cluster.EnrichedAlert) {
				go func() {
					if _, err := ad.Run(context.Background(), ea.Query); err != nil {
						fmt.Fprintf(os.Stderr, "spd analyzer: pipeline diagnosis (%s): %v\n", ea.Query.Name(), err)
					}
				}()
			})
			pipe.Flight = ad.Flight
			pipe.Register(svc.Registry)
			go pipe.Run(context.Background(), alerts)
			fmt.Fprintf(os.Stderr, "spd analyzer: alert pipeline armed (dedup %v, rate %g/s, burst %d)\n",
				*alertDedup, *alertRate, *alertBurst)
		}
		cfg := ad.Config()
		fmt.Fprintf(os.Stderr, "spd analyzer: /diagnose ready (max %d in flight, %d queued, wait %v)\n",
			cfg.MaxInFlight, cfg.MaxQueued, cfg.QueueWait)
	}
	svc.Registry.Uptime("spd_process_uptime_seconds", "Seconds since the daemon process started.")
	// spd_build_info: constant 1 labeled with the binary's version identity, so
	// dashboards detect version skew across a trio without parsing /healthz.
	svc.Registry.GaugeFunc("spd_build_info", "Always 1, labeled with the binary's version and toolchain.",
		[]string{"version", "goversion"}, func(emit metrics.Emit) {
			emit(1, buildinfo.Version, buildinfo.Go())
		})
	if rd != nil {
		go runBootstrap(role, *bootstrap, s.Testbed, rd, svc.Flight)
	}
	return serve(*listen, svc, role)
}

// runBootstrap absorbs the peer daemon's snapshots in the background while
// this daemon is already serving (queries answer from whatever has landed),
// then flips readiness to live. A failed bootstrap leaves the daemon in the
// syncing state — `spd wait` keeps waiting, which is the honest failure
// mode.
func runBootstrap(role, peer string, tb *scenario.Testbed, rd *statesync.Readiness, fr *trace.FlightRecorder) {
	ctx := context.Background()
	if err := cluster.WaitReady(ctx, peer+"/healthz", 60*time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "spd %s: bootstrap peer never went live: %v\n", role, err)
		return
	}
	b := &statesync.Bootstrapper{Readiness: rd}
	//splint:wallclock daemon progress log: real elapsed bootstrap time, never a metric
	start := time.Now()
	// The bootstrap leaves a single-span trace in the flight recorder: pure
	// wall-clock work (no virtual clock runs here), so the duration rides the
	// exempt wall annotation and the span's virtual times stay zero.
	recordBootstrap := func(segs, recs int64) {
		//splint:wallclock daemon progress log: real elapsed bootstrap time, never a metric
		wall := time.Since(start)
		fr.Record(trace.NewID("bootstrap", role, peer), trace.Span{
			ID: "0", Name: "bootstrap", Role: role, Wall: wall.Nanoseconds(),
			Attrs: []trace.Attr{
				{Key: "segments", Value: strconv.FormatInt(segs, 10)},
				{Key: "records", Value: strconv.FormatInt(recs, 10)},
			},
		})
	}
	switch role {
	case "host":
		segs, recs, err := cluster.BootstrapHosts(ctx, b, peer, tb)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spd host: bootstrap failed: %v\n", err)
			return
		}
		recordBootstrap(int64(segs), int64(recs))
		fmt.Fprintf(os.Stderr, "spd host: bootstrap complete (%d segments, %d records, %v); live\n",
			//splint:wallclock daemon progress log: real elapsed bootstrap time, never a metric
			segs, recs, time.Since(start).Round(time.Millisecond))
	case "switch":
		if err := cluster.BootstrapSwitches(ctx, b, peer, tb); err != nil {
			fmt.Fprintf(os.Stderr, "spd switch: bootstrap failed: %v\n", err)
			return
		}
		recordBootstrap(0, 0)
		//splint:wallclock daemon progress log: real elapsed bootstrap time, never a metric
		fmt.Fprintf(os.Stderr, "spd switch: bootstrap complete (%v); live\n", time.Since(start).Round(time.Millisecond))
	}
	rd.SetLive()
}

// serve runs an HTTP server until SIGINT/SIGTERM, then shuts down
// gracefully (in-flight requests get 5 s to finish). The listener is bound
// before the "listening on" line prints, and the line carries the ACTUAL
// bound address — so `-listen 127.0.0.1:0` picks a free ephemeral port and
// scripts scrape the address from stderr (what the verify smoke does,
// avoiding fixed-port collisions).
func serve(addr string, handler http.Handler, role string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: cluster.ReadHeaderTimeout}
	errc := make(chan error, 1)
	fmt.Fprintf(os.Stderr, "spd %s: listening on %s\n", role, ln.Addr())
	go func() {
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "spd %s: shutting down\n", role)
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}

// waitCmd polls a /healthz URL until the daemon reports readiness state
// "live" (a bootstrapping daemon answers "syncing" until its peer snapshot
// lands).
func waitCmd(args []string) error {
	fs := flag.NewFlagSet("spd wait", flag.ExitOnError)
	var (
		url     = fs.String("url", "", "health URL to poll (e.g. http://127.0.0.1:7643/healthz)")
		timeout = fs.Duration("timeout", 30*time.Second, "give up after this long")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *url == "" {
		return errors.New("wait needs -url")
	}
	return cluster.WaitReady(context.Background(), *url, *timeout)
}

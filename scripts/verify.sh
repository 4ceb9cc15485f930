#!/bin/sh
# Tier-1 verification: build + lint + test + cmd/examples compile checks.
# Equivalent to `make verify`; kept as a script for environments without make.
set -eu
cd "$(dirname "$0")/.."

go build ./...

# Lint leg, run before the tests: gofmt, go vet, then the splint invariant
# suite (detlint, sortlint, locklint, ctxlint — see README "Invariants &
# static analysis"). splint exits 1 on any finding, failing the gate.
FMT_OUT="$(gofmt -l .)"
if [ -n "$FMT_OUT" ]; then
	echo "gofmt needed:"
	echo "$FMT_OUT"
	exit 1
fi
go vet ./...
go run ./cmd/splint ./...
sh -n scripts/bench-pairs.sh # syntax only: running it is a measurement, not a gate

go test ./...

# Race detector over the concurrent surface (analyzer fan-out, RPC fan-out +
# HTTP client, host-agent query executors, the sharded record store under
# concurrent query+absorption, the event engine, the cluster service plane —
# admission controller + loopback HTTP trio — and the state-sync plane:
# snapshot streaming, bootstrap, ingest, segment log — plus the switch
# agents, the packet simulator, and the root-package integration tests).
# Scoped to these packages so the full gate stays fast.
go test -race ./internal/analyzer ./internal/rpc ./internal/hostagent ./internal/store ./internal/eventq ./internal/cluster ./internal/statesync ./internal/switchagent ./internal/netsim ./internal/trace .

# Fuzz leg: 10 s of native fuzzing over the segment decoder, from the
# committed seed corpus (internal/store/testdata/fuzz): arbitrary bytes must
# give records or an error — no panic, no allocation out of proportion to the
# input — and whatever decodes must survive an encode/decode round trip.
go test ./internal/store -run '^$' -fuzz FuzzDecodeSegment -fuzztime 10s

mkdir -p bin
go build -o bin/ ./cmd/...
for d in examples/*/; do
	echo "build $d"
	go build -o /dev/null "./$d"
done

# e2e smoke: a loopback spd trio (host + switch + analyzer daemons, each a
# separate process rebuilding the same deterministic scenario) answers one
# RedLightsQuery submitted over the wire by spctl --remote. Asserts the
# report is non-empty (a culprit was found). Every daemon binds an
# ephemeral port (-listen 127.0.0.1:0) and its actual address is scraped
# from the "listening on" stderr line, so leftover processes or port
# collisions can never make the smoke pass stale or fail spuriously.
SMOKE_DIR="$(mktemp -d)"
trap 'kill $SPD_HOST_PID $SPD_SWITCH_PID $SPD_ANALYZER_PID 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
SPD_HOST_PID= SPD_SWITCH_PID= SPD_ANALYZER_PID=

# spd_addr LOGFILE — waits for the daemon's "listening on" line and prints
# the bound host:port.
spd_addr() {
	i=0
	while [ $i -lt 300 ]; do
		addr="$(sed -n 's/.*listening on \(.*\)$/\1/p' "$1" | head -n 1)"
		if [ -n "$addr" ]; then
			echo "$addr"
			return 0
		fi
		i=$((i + 1))
		sleep 0.1
	done
	echo "verify: daemon never reported its address ($1):" >&2
	cat "$1" >&2
	return 1
}

./bin/spd host -scenario redlights -listen 127.0.0.1:0 2>"$SMOKE_DIR/host.log" &
SPD_HOST_PID=$!
./bin/spd switch -scenario redlights -listen 127.0.0.1:0 2>"$SMOKE_DIR/switch.log" &
SPD_SWITCH_PID=$!
HOST_ADDR="$(spd_addr "$SMOKE_DIR/host.log")"
SWITCH_ADDR="$(spd_addr "$SMOKE_DIR/switch.log")"
./bin/spd analyzer -scenario redlights -listen 127.0.0.1:0 \
	-alert-pipeline -alert-dedup 1s \
	-hosts "http://$HOST_ADDR" -switches "http://$SWITCH_ADDR" 2>"$SMOKE_DIR/analyzer.log" &
SPD_ANALYZER_PID=$!
ANALYZER_ADDR="$(spd_addr "$SMOKE_DIR/analyzer.log")"
./bin/spd wait -url "http://$HOST_ADDR/healthz" -timeout 60s
./bin/spd wait -url "http://$SWITCH_ADDR/healthz" -timeout 60s
./bin/spd wait -url "http://$ANALYZER_ADDR/healthz" -timeout 60s
SMOKE_OUT="$(./bin/spctl -problem redlights -remote "http://$ANALYZER_ADDR")"
echo "$SMOKE_OUT"
case "$SMOKE_OUT" in
*"diagnosis: too-many-red-lights"*"culprit:"*) echo "e2e smoke: OK" ;;
*) echo "e2e smoke: FAILED (unexpected report above)"; exit 1 ;;
esac

# Version smoke: both binaries identify themselves.
./bin/spd -version | grep -q "^spd v" || { echo "version smoke: spd -version broken" >&2; exit 1; }
./bin/spctl -version | grep -q "^spctl v" || { echo "version smoke: spctl -version broken" >&2; exit 1; }

# Trace smoke: the diagnosis above left a trace in every daemon's flight
# recorder. spctl -trace merges the trio's views into one span tree, which
# must contain spans from all three roles; the canonical JSON form must be
# byte-identical to the committed golden (the same bytes the loopback test
# gates — proving loopback and a real spd trio produce the same trace), and
# a second fetch+merge must be byte-identical to the first (/traces is
# deterministic and read-only).
TRACE_TREE="$(./bin/spctl -trace "http://$ANALYZER_ADDR")"
echo "$TRACE_TREE"
for roletag in "[analyzer]" "[host]" "[switch]"; do
	case "$TRACE_TREE" in
	*"$roletag"*) ;;
	*) echo "trace smoke: merged trace missing $roletag spans" >&2; exit 1 ;;
	esac
done
./bin/spctl -json -trace "http://$ANALYZER_ADDR" >"$SMOKE_DIR/trace1.json"
if ! cmp -s "$SMOKE_DIR/trace1.json" internal/cluster/testdata/redlights_trace.golden.json; then
	echo "trace smoke: trio trace diverged from committed golden" >&2
	diff internal/cluster/testdata/redlights_trace.golden.json "$SMOKE_DIR/trace1.json" >&2 || true
	exit 1
fi
./bin/spctl -json -trace "http://$ANALYZER_ADDR" >"$SMOKE_DIR/trace2.json"
cmp "$SMOKE_DIR/trace1.json" "$SMOKE_DIR/trace2.json" || { echo "trace smoke: double fetch not byte-identical" >&2; exit 1; }
echo "trace smoke: OK"

# Observability smoke: every role of the trio serves Prometheus /metrics.
# spctl scrapes and parses each endpoint (exit non-zero on malformed
# exposition text) and the required metric families must be present per
# role. The analyzer runs with -alert-pipeline, so its pipeline families
# must be present too. spd adds spd_process_uptime_seconds/spd_build_info to
# the registry each role's mux returned, after mounting it — asking every
# role for them is the only check on that wiring (no go test runs cmd/spd).
scrape_expect() {
	SCRAPE_URL="$1"
	shift
	SCRAPE_OUT="$(./bin/spctl -metrics "$SCRAPE_URL")"
	for fam in "$@"; do
		case "$SCRAPE_OUT" in
		*"$fam"*) ;;
		*)
			echo "metrics smoke: $SCRAPE_URL missing family $fam" >&2
			echo "$SCRAPE_OUT" >&2
			exit 1
			;;
		esac
	done
}
scrape_expect "http://$HOST_ADDR" \
	spd_store_resident_records spd_store_lock_acquires_total \
	spd_absorbed_packets_total spd_cold_segments_decoded_total \
	spd_coldlog_segment_writes_total spd_statesync_bootstrap_segments_total \
	spd_ready spd_process_uptime_seconds spd_build_info
scrape_expect "http://$SWITCH_ADDR" \
	spd_pointer_pulls_total spd_pointer_approx_pulls_total \
	spd_pointer_resident_bytes spd_switch_memory_bytes \
	spd_control_store_slots spd_ready spd_process_uptime_seconds spd_build_info
scrape_expect "http://$ANALYZER_ADDR" \
	spd_admission_in_flight spd_admission_admitted_total \
	spd_diagnosis_total spd_admission_queue_depth \
	spd_diagnosis_cold_rounds_total spd_process_uptime_seconds spd_build_info \
	spd_alerts_received_total spd_alerts_forwarded_total spd_ready
echo "metrics smoke: OK"

# Bootstrap smoke: the state-sync failover path. Host B starts with
# -bootstrap-from host A — it never replays the scenario, serves in the
# "syncing" state, absorbs A's snapshots, and goes "live" (spd wait gates on
# exactly that). Host A is then killed and a fresh analyzer daemon diagnoses
# against B alone: the report must find the same culprits, proving the
# bootstrapped state is the live state. Going live, B must also hold the
# one-span bootstrap trace at /traces — the proof that runBootstrap records
# into the flight recorder the host mux serves.
./bin/spd host -scenario redlights -bootstrap-from "http://$HOST_ADDR" \
	-listen 127.0.0.1:0 2>"$SMOKE_DIR/host_b.log" &
SPD_HOST_B_PID=$!
trap 'kill $SPD_HOST_PID $SPD_SWITCH_PID $SPD_ANALYZER_PID $SPD_HOST_B_PID $SPD_ANALYZER_B_PID 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
SPD_ANALYZER_B_PID=
HOST_B_ADDR="$(spd_addr "$SMOKE_DIR/host_b.log")"
./bin/spd wait -url "http://$HOST_B_ADDR/healthz" -timeout 60s
BOOT_TRACE="$(./bin/spctl -trace "http://$HOST_B_ADDR")"
case "$BOOT_TRACE" in
*"[host] bootstrap"*) ;;
*) echo "bootstrap smoke: host B's /traces lacks the bootstrap trace:" >&2; echo "$BOOT_TRACE" >&2; exit 1 ;;
esac
kill "$SPD_HOST_PID" 2>/dev/null || true
./bin/spd analyzer -scenario redlights -listen 127.0.0.1:0 \
	-hosts "http://$HOST_B_ADDR" -switches "http://$SWITCH_ADDR" 2>"$SMOKE_DIR/analyzer_b.log" &
SPD_ANALYZER_B_PID=$!
ANALYZER_B_ADDR="$(spd_addr "$SMOKE_DIR/analyzer_b.log")"
./bin/spd wait -url "http://$ANALYZER_B_ADDR/healthz" -timeout 60s
BOOT_OUT="$(./bin/spctl -problem redlights -remote "http://$ANALYZER_B_ADDR")"
echo "$BOOT_OUT"
case "$BOOT_OUT" in
*"diagnosis: too-many-red-lights"*"culprit:"*) echo "bootstrap smoke: OK" ;;
*) echo "bootstrap smoke: FAILED (unexpected report above)"; exit 1 ;;
esac

echo "verify: OK"

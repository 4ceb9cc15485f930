#!/bin/sh
# Tier-1 verification: build + lint + test + race + fuzz + cmd/examples
# compile checks + the spd trio, trace, metrics and bootstrap smokes.
# `make verify` runs this script; it needs no make.
set -eu
cd "$(dirname "$0")/.."

go build ./...

FMT_OUT="$(gofmt -l .)"
if [ -n "$FMT_OUT" ]; then
	echo "gofmt needed:"
	echo "$FMT_OUT"
	exit 1
fi
go vet ./...
sh -n scripts/bench-pairs.sh # syntax only: running it is a measurement, not a gate

# Every binary format reads its varints through internal/varint's Reader, and
# a flow record is two dozen of them: its Uvarint must stay inlined into
# flowrec's record walker, where an out-of-line call per varint would cost
# the decode and scan paths.
NEXT_LINES="$(awk '/^func \(c \*Cursor\) Next\(\)/ { s = NR } s && /^}/ { print s, NR; exit }' internal/flowrec/cursor.go)"
if ! go build -gcflags=-m ./internal/flowrec 2>&1 | awk -v lines="$NEXT_LINES" '
	BEGIN { split(lines, r, " ") }
	/inlining call to varint\.\(\*Reader\)\.Uvarint/ {
		split($1, at, ":")
		if (at[1] ~ /cursor\.go$/ && at[2] + 0 >= r[1] && at[2] + 0 <= r[2]) n++
	}
	END { exit n ? 0 : 1 }'; then
	echo "verify: varint.(*Reader).Uvarint is no longer inlined into flowrec's (*Cursor).Next"
	exit 1
fi

go test ./...

# Race detector over the concurrent surface (analyzer fan-out, RPC fan-out +
# HTTP client, host-agent query executors, the sharded record store under
# concurrent query+absorption, the event engine, the cluster service plane —
# admission controller + loopback HTTP trio — and the state-sync plane:
# snapshot streaming, bootstrap, segment log — plus the switch
# agents, the packet simulator, the record codec, the routing table, and the
# root-package integration tests).
# Scoped to these packages so the full gate stays fast.
go test -race ./internal/analyzer ./internal/rpc ./internal/hostagent ./internal/store ./internal/eventq ./internal/cluster ./internal/statesync ./internal/switchagent ./internal/netsim ./internal/trace ./internal/flowrec ./internal/topo .
# rpc.FanOut's caller and helpers claim indices under one lock,
# TestConcurrentHeadersBatchAnswers races /headers-batch requests over the
# host's and the client's pooled answer buffers and checks every answer kept
# still holds once later calls have reused them (the whole package runs,
# that test included),
# and the service plane's lock and cancellation contract tests race requests
# against locks and cancels; three race runs give their interleavings more
# than one chance to show (≈ 3 s each).
go test -race -count=3 ./internal/rpc
go test -race -count=3 -run '^(TestCancelReachesTheWire|TestDistributeInstallsOverlap|TestSlowReaderStallsNoSwitchRoute|TestSlowSnapshotReaderStallsNoPut|TestBlockingSinkStallsNoOffer)$' ./internal/cluster

# Fuzz leg: the targets and their times live only in scripts/fuzz.sh.
sh scripts/fuzz.sh

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
# Local/remote parity: the same query run in-process prints the same report,
# from its "diagnosis:" line on, as the remote session above.
./bin/spctl -problem redlights | sed -n '/^diagnosis:/,$p' >"$SMOKE_DIR/local.txt"
printf '%s\n' "$SMOKE_OUT" | sed -n '/^diagnosis:/,$p' >"$SMOKE_DIR/remote.txt"
if [ ! -s "$SMOKE_DIR/local.txt" ] || ! diff -u "$SMOKE_DIR/local.txt" "$SMOKE_DIR/remote.txt"; then
	echo "parity smoke: FAILED (local and remote spctl reports differ)"
	exit 1
fi
echo "parity smoke: OK"

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
	spd_pointer_pulls_total \
	spd_pointer_resident_bytes spd_switch_memory_bytes \
	spd_control_store_slots spd_ready spd_process_uptime_seconds spd_build_info
scrape_expect "http://$ANALYZER_ADDR" \
	spd_admission_in_flight spd_admission_admitted_total \
	spd_diagnosis_total spd_admission_queue_depth \
	spd_diagnosis_cold_rounds_total spd_process_uptime_seconds spd_build_info \
	spd_alerts_received_total spd_alerts_forwarded_total spd_ready
# spd offers the replay's whole alert log to the pipeline before it listens,
# so the received count is final: it must equal the alerts spsim's replay of
# the same scenario (red-lights to 30 ms) raises.
RAISED="$(./bin/spsim -scenario redlights | sed -n 's/^alerts raised: \([0-9][0-9]*\)$/\1/p')"
RECEIVED="$(./bin/spctl -metrics "http://$ANALYZER_ADDR" | sed -n 's/^ *spd_alerts_received_total  *\([0-9][0-9]*\)$/\1/p')"
if [ -z "$RAISED" ] || [ "$RAISED" != "$RECEIVED" ]; then
	echo "metrics smoke: spd_alerts_received_total = '$RECEIVED', spsim raised '$RAISED'" >&2
	exit 1
fi
echo "metrics smoke: OK (alerts received $RECEIVED = raised $RAISED)"

# Bootstrap smoke: the state-sync failover path. Host B and switch B start
# with -bootstrap-from host A and switch A — they never replay the scenario,
# serve in the "syncing" state, absorb A's snapshots (segment frames from the
# host, the binary switch snapshot from the switch), and go "live" (spd wait
# gates on exactly that). Host A and switch A are then killed and a fresh
# analyzer daemon diagnoses against B alone: the report must find the same
# culprits, proving the bootstrapped state is the live state. Going live,
# host B must also hold the one-span bootstrap trace at /traces — the proof
# that runBootstrap records into the flight recorder the host mux serves.
./bin/spd host -scenario redlights -bootstrap-from "http://$HOST_ADDR" \
	-listen 127.0.0.1:0 2>"$SMOKE_DIR/host_b.log" &
SPD_HOST_B_PID=$!
./bin/spd switch -scenario redlights -bootstrap-from "http://$SWITCH_ADDR" \
	-listen 127.0.0.1:0 2>"$SMOKE_DIR/switch_b.log" &
SPD_SWITCH_B_PID=$!
trap 'kill $SPD_HOST_PID $SPD_SWITCH_PID $SPD_ANALYZER_PID $SPD_HOST_B_PID $SPD_SWITCH_B_PID $SPD_ANALYZER_B_PID 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
SPD_ANALYZER_B_PID=
HOST_B_ADDR="$(spd_addr "$SMOKE_DIR/host_b.log")"
SWITCH_B_ADDR="$(spd_addr "$SMOKE_DIR/switch_b.log")"
./bin/spd wait -url "http://$HOST_B_ADDR/healthz" -timeout 60s
./bin/spd wait -url "http://$SWITCH_B_ADDR/healthz" -timeout 60s
BOOT_TRACE="$(./bin/spctl -trace "http://$HOST_B_ADDR")"
case "$BOOT_TRACE" in
*"[host] bootstrap"*) ;;
*) echo "bootstrap smoke: host B's /traces lacks the bootstrap trace:" >&2; echo "$BOOT_TRACE" >&2; exit 1 ;;
esac
kill "$SPD_HOST_PID" "$SPD_SWITCH_PID" 2>/dev/null || true
./bin/spd analyzer -scenario redlights -listen 127.0.0.1:0 \
	-hosts "http://$HOST_B_ADDR" -switches "http://$SWITCH_B_ADDR" 2>"$SMOKE_DIR/analyzer_b.log" &
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

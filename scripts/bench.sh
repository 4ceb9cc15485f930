#!/bin/sh
# Benchmark gate: runs the paper-figure benchmark suite (root package) with
# -benchmem, emits a machine-readable JSON artifact so the performance
# trajectory is tracked PR over PR, and prints a before/after delta against
# the artifact's frozen baseline.
#
# Usage:  scripts/bench.sh [out.json]
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 3x)
#   PATTERN     -bench regexp           (default . — every benchmark)
#   BENCHCOUNT  go test -count value    (default 5) — the artifact records
#               each benchmark's BEST (min ns/op) run, which is the standard
#               robust estimator on noisy shared machines: interference only
#               ever slows a run down, so the minimum is the closest sample
#               to the true cost
#
# Output schema (out.json, default BENCH_PR10.json):
#   {
#     "benchtime": "3x",
#     "baseline":  { "<Benchmark>": {"ns_per_op":…, "b_per_op":…,
#                                    "allocs_per_op":…, "metrics":{…}} },
#     "current":   { … same shape … }
#   }
# "current" is overwritten on every run. "baseline" is preserved when the
# output file already has one; on a fresh file the baseline seeds from the
# previous PR's artifact if present (BENCH_PR10.json seeds from
# BENCH_PR9.json's "current" — the state this PR started from), else from
# this first run.
#
# PR 20 deleted BenchmarkAblationEventQueue and BenchmarkCalendarBursty with
# the calendar queue they measured. Their entries in BENCH_PR10.json's
# baseline are orphans and inert: the delta table and the drift gate iterate
# the benchmarks of the *current* run only, so a baseline name nothing
# produces any more is never read. The file is deliberately not regenerated.
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR10.json}"
SEED_FROM="BENCH_PR9.json"
BENCHTIME="${BENCHTIME:-3x}"
PATTERN="${PATTERN:-.}"
BENCHCOUNT="${BENCHCOUNT:-5}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee "$TMP"

python3 - "$TMP" "$OUT" "$BENCHTIME" "$SEED_FROM" <<'EOF'
import json, re, sys

raw, out, benchtime, seed_from = sys.argv[1:5]

def parse(path):
    # Best (min ns/op) run per benchmark across -count repetitions; each
    # entry stays internally consistent (one actual run's numbers).
    benches = {}
    for line in open(path):
        if not line.startswith("Benchmark"):
            continue
        fields = line.split()
        if len(fields) < 4:
            continue
        name = re.sub(r"-\d+$", "", fields[0])
        entry = {"iterations": int(fields[1]), "metrics": {}}
        rest = fields[2:]
        for val, unit in zip(rest[0::2], rest[1::2]):
            try:
                v = float(val)
            except ValueError:
                continue
            if unit == "ns/op":
                entry["ns_per_op"] = v
            elif unit == "B/op":
                entry["b_per_op"] = v
            elif unit == "allocs/op":
                entry["allocs_per_op"] = v
            else:
                entry["metrics"][unit] = v
        prev = benches.get(name)
        if prev is None or entry.get("ns_per_op", 1e30) < prev.get("ns_per_op", 1e30):
            benches[name] = entry
    return benches

current = parse(raw)
doc = {"benchtime": benchtime, "baseline": current, "current": current}
try:
    prev = json.load(open(out))
    if isinstance(prev, dict) and prev.get("baseline"):
        doc["baseline"] = prev["baseline"]
except (OSError, ValueError):
    # Fresh artifact: freeze the previous PR's "current" as this PR's
    # baseline, so the delta below reports what this PR changed.
    try:
        seed = json.load(open(seed_from))
        if isinstance(seed, dict) and seed.get("current"):
            doc["baseline"] = seed["current"]
    except (OSError, ValueError):
        pass

with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
print(f"bench: wrote {out} ({len(current)} benchmarks)")

# Before/after delta against the frozen baseline (wall-clock; negative is
# faster). Virtual-time metrics are expected byte-identical and are flagged
# when they drift. Exempt from the drift gate: every metric of the
# benchmarks that MEASURE wall-clock datapath throughput (their gbps values
# legitimately vary run to run), and events/iter everywhere (events divided
# by wall-clock-chosen b.N). Exemption is per benchmark, not per metric
# name, so new metrics added to those benchmarks stay exempt while new
# virtual-time benchmarks are gated automatically.
WALL_CLOCK_BENCHES = ("BenchmarkFig9DatapathThroughput", "BenchmarkFig9PerPacket",
                      "BenchmarkAblationPacketMix", "BenchmarkDiagnosisThroughput")
rows = []
drift = []
for name in sorted(current):
    cur = current[name]
    base = doc["baseline"].get(name)
    if not base or "ns_per_op" not in base or "ns_per_op" not in cur:
        continue
    b, c = base["ns_per_op"], cur["ns_per_op"]
    pct = 100.0 * (c - b) / b if b else 0.0
    rows.append((name, b, c, pct))
    if name.startswith(WALL_CLOCK_BENCHES):
        continue
    for unit, v in cur.get("metrics", {}).items():
        bv = base.get("metrics", {}).get(unit)
        if bv is not None and unit != "events/iter" and bv != v:
            drift.append(f"  {name} {unit}: {bv} -> {v}")
if rows:
    w = max(len(r[0]) for r in rows)
    print(f"\nbench: delta vs frozen baseline ({benchtime}):")
    print(f"  {'benchmark'.ljust(w)}  {'baseline ns/op':>16}  {'current ns/op':>16}  {'delta':>8}")
    for name, b, c, pct in rows:
        print(f"  {name.ljust(w)}  {b:16.0f}  {c:16.0f}  {pct:+7.1f}%")
if drift:
    print("\nbench: WARNING — virtual-time metrics drifted from baseline:")
    print("\n".join(drift))
EOF

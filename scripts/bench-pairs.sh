#!/bin/sh
# Paired, alternating benchmark runs of two checkouts — how ROADMAP's Standing
# notes ask every timing claim to be made, as a command.
#
#   scripts/bench-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [N=10] [SECONDS=10]
#
# Builds ./benchmark once in each directory, then N times runs
#   -workload WORKLOAD -seed $SEED -seconds SECONDS -trace 0     (SEED defaults to 1)
# from each directory, flipping which side goes first every pair (this VM's
# speed drifts over minutes; alternation puts the drift on both sides). For
# every end-to-end metric it prints each pair, each side's median and
# quartiles, and the change's wins/losses. A gain counts when the change wins
# at least nine pairs of ten and the medians differ by more than the parent's
# own interquartile distance; the last column says which of the two held.
set -eu

if [ $# -lt 3 ]; then
	sed -n '2,5p' "$0" >&2
	exit 2
fi
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
WORKLOAD=$3
N=${4:-10}
SECONDS_PER_RUN=${5:-10}
SEED=${SEED:-1}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
(cd "$PARENT" && go build -o "$TMP/parent.bin" ./benchmark)
(cd "$CHANGE" && go build -o "$TMP/change.bin" ./benchmark)

# run SIDE DIR PAIR — one run from the side's own directory (the benchmark
# keeps its scratch state under ./.bench_build); a failed run stops the lot.
run() {
	if ! (cd "$2" && "$TMP/$1.bin" -workload "$WORKLOAD" -seed "$SEED" \
		-seconds "$SECONDS_PER_RUN" -trace 0) >"$TMP/$1.$3.txt" 2>"$TMP/$1.$3.err"; then
		echo "bench-pairs: $1 run $3 failed:" >&2
		cat "$TMP/$1.$3.err" >&2
		exit 1
	fi
}

i=1
while [ "$i" -le "$N" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$PARENT" "$i"
		run change "$CHANGE" "$i"
	else
		run change "$CHANGE" "$i"
		run parent "$PARENT" "$i"
	fi
	echo "pair $i/$N done" >&2
	i=$((i + 1))
done

echo "# $WORKLOAD seed $SEED, $N alternating pairs of ${SECONDS_PER_RUN}s runs; parent $PARENT, change $CHANGE"
for metric in latency_p50_ms latency_p90_ms throughput_ops_s cpu_ms_per_op \
	allocs_per_op alloc_kb_per_op heap_live_mb setup_s failed; do
	i=1
	while [ "$i" -le "$N" ]; do
		p="$(awk -v m="$metric" '$1 == m { print $2; exit }' "$TMP/parent.$i.txt")"
		c="$(awk -v m="$metric" '$1 == m { print $2; exit }' "$TMP/change.$i.txt")"
		echo "$p $c"
		i=$((i + 1))
	done | awk -v metric="$metric" '
		function quantile(a, n, q,    pos, lo, frac) {
			pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
			return lo >= n ? a[n] : a[lo] + frac * (a[lo + 1] - a[lo])
		}
		function isort(a, n,    i, j, t) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		{
			n++; p[n] = $1; c[n] = $2
			pairs = pairs sprintf(" %s→%s", $1, $2)
			better = (metric == "throughput_ops_s") ? ($2 > $1) : ($2 < $1)
			if ($1 == $2) ties++; else if (better) wins++; else losses++
		}
		END {
			isort(p, n); isort(c, n)
			pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
			iqr = quantile(p, n, 0.75) - quantile(p, n, 0.25)
			diff = (metric == "throughput_ops_s") ? cm - pm : pm - cm
			verdict = "unresolved"
			if (wins * 10 >= (wins + losses) * 9 && wins > 0 && diff > iqr) verdict = "better"
			else if (losses * 10 >= (wins + losses) * 9 && losses > 0 && -diff > iqr) verdict = "worse"
			else if (wins + losses == 0) verdict = "same"
			printf "%s\n  pairs (parent→change):%s\n", metric, pairs
			printf "  parent median %g [q1 %g, q3 %g]   change median %g [q1 %g, q3 %g]\n",
				pm, quantile(p, n, 0.25), quantile(p, n, 0.75), cm, quantile(c, n, 0.25), quantile(c, n, 0.75)
			printf "  change wins %d, loses %d, ties %d of %d: %s\n", wins, losses, ties, n, verdict
		}'
done

#!/usr/bin/env bash
# Interleaved parent/change pairs of the repository benchmark.
#
#   scripts/bench-pair.sh <parent-ref> <workload> [pairs] [seed] [run.sh args...]
#
# Copies <parent-ref> out under .bench_build/pair/<sha> (git archive: a
# plain copy, nothing registered in .git), then runs benchmark/run.sh on
# that copy and on this checkout alternately — parent first in odd pairs,
# change first in even ones, because the box drifts — and prints, for every
# metric of the runs' final JSON line, both medians, their ratio and how
# many pairs the change won. Extra arguments go to run.sh on both sides
# (e.g. --trace 1). Every run's full output stays under
# .bench_build/pair/logs, one directory per invocation.
set -euo pipefail
if [ $# -lt 2 ]; then
	sed -n '2,14p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-5} seed=${4:-1}
shift $(($# < 4 ? $# : 4))
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
parent=$root/.bench_build/pair/$sha
logs=$root/.bench_build/pair/logs/$(date +%Y%m%dT%H%M%S)-$workload-$seed
mkdir -p "$logs"
if [ ! -d "$parent" ]; then
	mkdir -p "$parent"
	git -C "$root" archive "$sha" | tar -x -C "$parent"
fi

run() { # side dir pair
	local out=$logs/$3.$1
	bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" "${@:4}" >"$out" 2>&1 ||
		{ echo "bench-pair: $1 run of pair $3 failed, see $out" >&2; exit 1; }
	# One "metric value" line per metric, then the correctness gate.
	tail -n 1 "$out" | grep -o '"[A-Za-z0-9_.]*":{"value":[-+0-9.eE]*' |
		sed 's/^"\([^"]*\)":{"value":/\1 /' | sed "s/^/$1 $3 /"
	tail -n 1 "$out" | grep -q '"correct":true' && tail -n 1 "$out" | grep -q '"failed":0[,}]' ||
		echo "bench-pair: $1 run of pair $3 is not correct/failed=0, see $out" >&2
}

results=$logs/results
: >"$results"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i" "$@" >>"$results"
		run change "$root" "$i" "$@" >>"$results"
	else
		run change "$root" "$i" "$@" >>"$results"
		run parent "$parent" "$i" "$@" >>"$results"
	fi
	echo "pair $i/$pairs done" >&2
done

# Which way is better comes from BENCHMARK.json ("better": "higher" marks
# the few rates; everything else is lower-is-better).
higher=$(tr -d ' \n' <"$root/BENCHMARK.json" | grep -o '"name":"[^"]*","unit":"[^"]*","better":"higher"' |
	sed 's/^"name":"\([^"]*\)".*/\1/' | tr '\n' ' ')
echo "workload $workload seed $seed: $pairs interleaved pairs, parent $ref (${sha:0:7}) -> change"
awk -v higher="$higher" '
function median(side, m,    n, i, j, t, v) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, i, m) in val) v[++n] = val[side, i, m]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	if (n == 0) return 0
	return n % 2 ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
}
BEGIN { split(higher, h, " "); for (k in h) up[h[k]] = 1 }
{ val[$1, $2, $3] = $4; if ($2 > pairs) pairs = $2; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
	printf "%-32s %14s %14s %8s %6s\n", "metric", "parent p50", "change p50", "ratio", "wins"
	for (k = 1; k <= nm; k++) {
		m = order[k]; wins = 0
		for (i = 1; i <= pairs; i++) {
			p = val["parent", i, m]; c = val["change", i, m]
			if ((m in up) ? c > p : c < p) wins++
		}
		p = median("parent", m); c = median("change", m)
		printf "%-32s %14.6g %14.6g %8s %3d/%d\n", m, p, c, (p != 0 ? sprintf("%.3f", c / p) : "-"), wins, pairs
	}
}' "$results"

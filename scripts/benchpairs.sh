#!/bin/sh
# benchpairs.sh — parent against working tree on one wall-clock workload, or
# on every workload of BENCHMARK.json with `all`, the way a claimed gain is
# measured (choosing-metrics §8): both sides built once, N pairs of runs per
# workload alternating which side goes first, seed = pair number, run length
# from BENCHMARK.json. Per workload and end-to-end metric it prints both
# medians and quartiles, the change, the pairs the working tree won (ties
# count for neither) and a verdict, all in one table:
#
#   gain        better in >= 9/10 of the pairs and the medians apart by more
#               than the parent's quartile distance
#   regression  the working tree's median worse by more than the bound
#   unresolved  a side's quartile distance wider than the bound, and not
#               every run of the working tree better than every parent run
#   within      none of the above
#
#   scripts/benchpairs.sh <ref> <workload|all> [pairs]
#   make benchpairs REF=HEAD~1 W=app-tcp4 N=10
#   make benchpairs W=all N=3       # "nothing got worse anywhere", one command
#
# The parent is built from `git archive <ref>` in a temporary directory, so
# neither the index, the working tree nor benchmark/ is touched. Every run's
# values are printed in run order first. Exit 1 on a regression or when a
# larger share of operations failed, on any workload. Needs jq.
set -eu

cd "$(dirname "$0")/.."

ref=${1:?usage: benchpairs.sh <ref> <workload|all> [pairs]}
w=${2:?usage: benchpairs.sh <ref> <workload|all> [pairs]}
n=${3:-10}

seconds=$(jq -r .run_seconds BENCHMARK.json)
if [ "$w" = all ]; then
	ws=$(jq -r '.workloads[].name' BENCHMARK.json)
else
	jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' BENCHMARK.json >/dev/null ||
		{ echo "benchpairs: BENCHMARK.json has no workload $w" >&2; exit 2; }
	ws=$w
fi

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/parent"
git archive "$ref" | tar -x -C "$dir/parent"
(cd "$dir/parent" && go build -o "$dir/bench_parent" ./benchmark)
go build -o "$dir/bench_change" ./benchmark

# One run of workload $1: the last line of standard output is the result
# object; it becomes "workload side pair attempted failed value..." in
# BENCHMARK.json's order.
run() {
	"$dir/bench_$2" -workload "$1" -seed "$3" -seconds "$seconds" | tail -1 |
		jq -r --arg w "$1" --arg side "$2" --arg pair "$3" --slurpfile c BENCHMARK.json \
			'[$w, $side, $pair, .attempted, .failed] + [.metrics[$c[0].end_to_end[].name].value] | @tsv'
}

echo "# $(echo $ws): $n pairs of ${seconds} s each, parent = $(git rev-parse --short "$ref"), change = working tree on $(git rev-parse --short HEAD)"
printf 'workload\tside\tpair\tattempted\tfailed\t%s\n' "$(jq -r '[.end_to_end[].name] | @tsv' BENCHMARK.json)"
for wl in $ws; do
	i=1
	while [ "$i" -le "$n" ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run "$wl" parent "$i"; run "$wl" change "$i"
		else
			run "$wl" change "$i"; run "$wl" parent "$i"
		fi
		i=$((i + 1))
	done
done | tee "$dir/runs.tsv"

jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' BENCHMARK.json >"$dir/metrics.tsv"
awk -F'\t' '
function sorted(src, dst, n,    i, j, t) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j+1] = dst[j]; dst[j+1] = t }
}
# Quartile k of n sorted values, the exclusive method benchmark/stats.go
# and Python statistics.quantiles use.
function quart(s, n, k,    pos, lo, fr) {
	pos = k * (n + 1) / 4; lo = int(pos); fr = pos - lo
	if (lo < 1) return s[1]
	if (lo >= n) return s[n]
	return s[lo] + fr * (s[lo+1] - s[lo])
}
FNR == NR { name[FNR] = $1; better[FNR] = $2; bound[FNR] = $3; metrics = FNR; next }
{
	if (!($1 in seen)) { seen[$1] = 1; wl[++nw] = $1 }
	att[$1, $2] += $4; fail[$1, $2] += $5
	for (m = 1; m <= metrics; m++) v[$1, $2, m, $3] = $(5 + m)
	if ($3 > n) n = $3
}
END {
	printf "\n%-12s %-11s %12s %24s %12s %24s %8s %6s  %s\n", "workload", "metric", "parent med", "parent quartiles", "change med", "change quartiles", "change", "wins", "verdict"
	for (k = 1; k <= nw; k++) {
		w = wl[k]
		for (m = 1; m <= metrics; m++) {
			sign = better[m] == "higher" ? -1 : 1 # worse = sign * (change - parent) > 0
			wins = 0; all = 1
			for (i = 1; i <= n; i++) { a[i] = v[w, "parent", m, i]; b[i] = v[w, "change", m, i]; if (sign * (b[i] - a[i]) < 0) wins++ }
			sorted(a, sa, n); sorted(b, sb, n)
			if (sign > 0 ? sb[n] >= sa[1] : sb[1] <= sa[n]) all = 0
			ma = quart(sa, n, 2); mb = quart(sb, n, 2)
			iqa = quart(sa, n, 3) - quart(sa, n, 1); iqb = quart(sb, n, 3) - quart(sb, n, 1)
			worse = sign * (mb - ma) / ma
			if (worse > bound[m]) { verdict = "regression"; bad = 1 }
			else if (wins >= 0.9 * n && -sign * (mb - ma) > iqa) verdict = "gain"
			else if ((iqa / ma > bound[m] || iqb / mb > bound[m]) && !all) verdict = "unresolved"
			else verdict = "within"
			printf "%-12s %-11s %12.4f %11.4f..%-11.4f %12.4f %11.4f..%-11.4f %+7.1f%% %3d/%-2d  %s (bound %g%%)\n", w, name[m], ma, quart(sa, n, 1), quart(sa, n, 3), mb, quart(sb, n, 1), quart(sb, n, 3), 100 * (mb - ma) / ma, wins, n, verdict, 100 * bound[m]
		}
		printf "%-12s ops failed: parent %d/%d, change %d/%d\n", w, fail[w, "parent"], att[w, "parent"], fail[w, "change"], att[w, "change"]
		if (fail[w, "change"] * att[w, "parent"] > fail[w, "parent"] * att[w, "change"]) { printf "%-12s a larger share of operations failed\n", w; bad = 1 }
	}
	exit bad
}' "$dir/metrics.tsv" "$dir/runs.tsv"

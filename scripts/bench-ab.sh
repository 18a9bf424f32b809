#!/usr/bin/env bash
# Paired A/B speed gate on the repository benchmark (tarbench/,
# BENCHMARK.json). Run from anywhere inside the repository:
#
#   bash scripts/bench-ab.sh <workload> [<rev>]
#
# <rev> defaults to the merge-base with main, or HEAD^ when the merge-base is
# HEAD itself. It is checked out as a git worktree under .bench_build/ab-base.
# The other side is this checkout, working tree included. Both sides build
# from their own source through tarbench/run.sh.
#
# The script runs <workload> in PAIRS alternating pairs, <rev> first on odd
# pairs and the checkout first on even ones. It prints both sides' medians
# and quartiles for every end-to-end metric, each pair's wall_s ratio
# (checkout ÷ <rev>), the pairs the checkout won and whether the statistics
# fingerprints match. It appends that report as one row to
# results/BENCH_<workload>.json.
#
# Exit status: 1 when a run fails or reports failed > 0, or when the median
# paired wall_s ratio exceeds 1 + BOUND; 2 on a usage error. When tarbench/
# or BENCHMARK.json differ between the two sides, the benchmark itself
# changed: a changed benchmark is re-baselined, not compared, so the script
# prints a notice and exits 0.
set -euo pipefail

# PAIRS and BOUND come from paper-sweep trials on a shared 2-CPU host,
# recorded in CHANGES.md. Comparing a build with itself, single pairs read
# 0.79-1.19 but the median of 10 read 0.96-1.05; against a chip loop
# slowed about 1.15x, the median of 10 read 1.13 or more.
PAIRS=10
BOUND=0.07
RUN_SECONDS=10

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: bash scripts/bench-ab.sh <workload> [<rev>]" >&2
	exit 2
fi
workload=$1
root=$(git rev-parse --show-toplevel)
cd "$root"

if [ $# -eq 2 ]; then
	rev=$2
else
	main=main
	git rev-parse -q --verify main >/dev/null || main=origin/main
	rev=$(git merge-base HEAD "$main")
	if [ "$rev" = "$(git rev-parse HEAD)" ]; then
		rev=HEAD^
	fi
fi
if ! base=$(git rev-parse -q --verify "$rev^{commit}"); then
	echo "bench-ab: unknown revision $rev" >&2
	exit 2
fi
if ! git diff --quiet "$base" -- tarbench BENCHMARK.json; then
	echo "bench-ab: tarbench/ or BENCHMARK.json differ from ${base:0:12}; a changed benchmark is re-baselined, not A/B'd, so nothing was compared"
	exit 0
fi
head=$(git rev-parse --short=12 HEAD)
# The report rows this script appends under results/ do not make a checkout
# dirty; any other difference from HEAD does.
git diff --quiet HEAD -- . ':(exclude)results' || head+=-dirty

build=$root/.bench_build
wt=$build/ab-base
logs=$build/ab-logs
mkdir -p "$build"
git worktree prune
if [ -f "$wt/.git" ]; then
	git -C "$wt" checkout -q --force --detach "$base"
else
	rm -rf "$wt"
	git worktree add -q --force --detach "$wt" "$base"
fi
rm -rf "$logs"
mkdir -p "$logs"

# run <side> <dir> <pair> runs the workload once in dir and appends its
# result line, with its fingerprint and calibration times, to <side>.jsonl.
run() {
	local side=$1 dir=$2 pair=$3
	local log=$logs/$side-$pair.log
	if ! (cd "$dir" && bash tarbench/run.sh --workload "$workload" --seed 1 --seconds "$RUN_SECONDS" --trace 0) >"$log" 2>&1; then
		echo "bench-ab: the $side run of pair $pair failed:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	local res fp host
	res=$(tail -n 1 "$log")
	fp=$(awk '$1 == "fingerprint" { print $3 }' "$log")
	host=$(jq -c '.host | {calib_ms, calib_end_ms}' "$dir/.bench_build/runs/$workload-seed1-trace0.json")
	jq -c --arg fp "$fp" --argjson host "$host" '. + {fingerprint: $fp} + $host' <<<"$res" >>"$logs/$side.jsonl"
	if [ "$(jq .failed <<<"$res")" != 0 ]; then
		echo "bench-ab: the $side run of pair $pair reported failures:" >&2
		grep 'tarbench: failed:' "$log" >&2 || true
		exit 1
	fi
	printf 'pair %2d/%d %-8s wall_s %s\n' "$pair" "$PAIRS" "$side" "$(jq .metrics.wall_s.value <<<"$res")"
}

echo "bench-ab: $workload, checkout $head against ${base:0:12}, $PAIRS pairs of ${RUN_SECONDS} s runs"
for pair in $(seq 1 "$PAIRS"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run base "$wt" "$pair"
		run checkout "$root" "$pair"
	else
		run checkout "$root" "$pair"
		run base "$wt" "$pair"
	fi
done

row=$(jq -n \
	--slurpfile spec BENCHMARK.json \
	--slurpfile base "$logs/base.jsonl" \
	--slurpfile head "$logs/checkout.jsonl" \
	--arg workload "$workload" --arg base_rev "${base:0:12}" --arg head_rev "$head" \
	--argjson pairs "$PAIRS" --argjson bound "$BOUND" --argjson seconds "$RUN_SECONDS" \
	--arg when "$(date -u +%Y-%m-%dT%H:%M:%SZ)" --argjson nproc "$(nproc)" --arg go "$(go env GOVERSION)" '
	def median: sort | length as $n
		| if $n % 2 == 1 then .[($n - 1) / 2] else (.[$n / 2 - 1] + .[$n / 2]) / 2 end;
	# The first and third quartiles as Python statistics.quantiles(n=4)
	# computes them, as tarbench does.
	def quartiles: sort as $d | ($d | length) as $ld | ($ld + 1) as $m
		| [1, 3] | map(. as $i
			| ([([($i * $m / 4 | floor), 1] | max), $ld - 1] | min) as $j
			| ($i * $m - $j * 4) as $delta
			| ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4);
	def summary: {median: median, q1: quartiles[0], q3: quartiles[1]};
	[range(0; $pairs) | $head[.].metrics.wall_s.value / $base[.].metrics.wall_s.value] as $ratios
	| ($ratios | median) as $ratio
	| {
		when: $when, workload: $workload, base: $base_rev, checkout: $head_rev,
		pairs: $pairs, run_seconds: $seconds, bound: $bound,
		host: {nproc: $nproc, go: $go},
		metrics: [$spec[0].end_to_end[] | .name as $n | {key: $n, value: {
			unit: .unit,
			base: ([$base[].metrics[$n].value] | summary),
			checkout: ([$head[].metrics[$n].value] | summary)}}] | from_entries,
		calib_ms: {base: ([$base[].calib_ms] | median), checkout: ([$head[].calib_ms] | median)},
		wall_s_ratios: $ratios,
		median_ratio: $ratio,
		checkout_wins: ([$ratios[] | select(. < 1)] | length),
		fingerprints_match: ([$base[].fingerprint, $head[].fingerprint] | unique | length == 1),
		verdict: (if $ratio > 1 + $bound then "fail" else "pass" end)
	}')

# The report: both sides' medians and quartiles, then the paired verdict.
jq -r '
	def f: . * 1000 | round / 1000 | tostring;
	def q: "\(.median | f) [\(.q1 | f), \(.q3 | f)]";
	"\(.workload): checkout \(.checkout) against \(.base)",
	(["metric", "unit", "base median [q1, q3]", "checkout median [q1, q3]"],
		(.metrics | to_entries[] | [.key, .value.unit, (.value.base | q), (.value.checkout | q)])
		| [., [14, 6, 34, 34]] | transpose
		| "  " + (map((.[0] + "                                  ")[0:.[1]]) | join(" "))),
	"wall_s ratios (checkout ÷ base, pair order): \([.wall_s_ratios[] | f] | join(" "))",
	"median ratio \(.median_ratio | f) against a bound of \(1 + .bound | f); checkout faster in \(.checkout_wins) of \(.pairs) pairs; fingerprints match: \(.fingerprints_match)"
' <<<"$row"

out=results/BENCH_$workload.json
mkdir -p results
if [ -f "$out" ]; then
	jq --argjson row "$row" '.rows += [$row]' "$out" >"$out.tmp"
else
	jq -n --argjson row "$row" '{schema: 1, rows: [$row]}' >"$out.tmp"
fi
mv "$out.tmp" "$out"
echo "bench-ab: row appended to $out"

if [ "$(jq -r .verdict <<<"$row")" = fail ]; then
	echo "bench-ab: FAIL: the median paired wall_s ratio exceeds 1 + $BOUND" >&2
	exit 1
fi
echo "bench-ab: ok"

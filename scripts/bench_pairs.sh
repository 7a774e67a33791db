#!/usr/bin/env bash
# bench_pairs.sh — alternating parent/change pairs of one bench/
# workload, the evidence a perf claim against BENCHMARK.json needs
# (ROADMAP: "alternating parent/change pairs and quartiles").
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs] [seconds]
#
# The parent side is an export of <parent-ref> (git archive: nothing is
# registered in .git and nothing outside bench/out/ is written); the
# change side is the working tree. Each side is built and run by its OWN
# bench/run.sh, so both use that script's offline build environment and
# each measures its own commit's benchmark code. Pairs alternate which
# side runs first, and every pair gets a fresh seed (BENCH_PAIRS_SEED
# sets the first; the default is the clock, so a rerun is a rerun on
# seeds never used before). Prints every pair, then each side's
# quartiles, the change's wins, and the failed-request totals.
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs=10] [seconds=15]" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=${3:-10} seconds=${4:-15}
seed0=${BENCH_PAIRS_SEED:-$(date +%s)}

root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
parent="$root/bench/out/pairs/parent-$sha"
rm -rf "$parent"
mkdir -p "$parent"
rows=$(mktemp "$root/bench/out/pairs/rows.XXXXXX")
trap 'rm -rf "$parent" "$rows"' EXIT
git -C "$root" archive "$sha" | tar -x -C "$parent"

# field <json> <metric>: the metric's value in a --workload run's last line.
field() { printf '%s\n' "$1" | grep -o "\"$2\":{\"value\":[0-9.eE+-]*" | sed 's/.*://'; }

# run <tree> <seed>: one run, printed as "kreq_s p50_us failed".
run() {
	local out
	out=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
	case $out in
	*'"correct":true'*) ;;
	*) echo "run of $1 (seed $2) was not correct: $out" >&2; exit 1 ;;
	esac
	echo "$(field "$out" kreq_s) $(field "$out" p50_us) $(printf '%s\n' "$out" | grep -o '"failed":[0-9]*' | sed 's/.*://')"
}

echo "# $workload, $pairs pairs x ${seconds}s, parent $sha, seeds $seed0..$((seed0 + pairs - 1))"
echo "# pair seed first | parent kreq_s p50_us | change kreq_s p50_us | ratio"
for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		first=parent
		p=$(run "$parent" "$seed")
		c=$(run "$root" "$seed")
	else
		first=change
		c=$(run "$root" "$seed")
		p=$(run "$parent" "$seed")
	fi
	echo "$p $c" >>"$rows"
	echo "$i $seed $first $p $c" | awk '{ printf "%4d %d %-6s | %9.2f %7.3f | %9.2f %7.3f | %.3f\n", $1, $2, $3, $4, $5, $7, $8, $7/$4 }'
done

# quart <column>: min, quartiles and max of one column of $rows.
quart() {
	awk -v c="$1" '{ print $c }' "$rows" | sort -g | awk '
		{ v[NR] = $1 }
		function q(f,   h, lo) { h = (NR - 1) * f + 1; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { printf "min %.3f  q1 %.3f  median %.3f  q3 %.3f  max %.3f", v[1], q(.25), q(.5), q(.75), v[NR] }'
}
echo "# parent kreq_s: $(quart 1)"
echo "# change kreq_s: $(quart 4)"
echo "# parent p50_us: $(quart 2)"
echo "# change p50_us: $(quart 5)"
awk -v n="$pairs" '
	$4 > $1 { k++ } $5 < $2 { l++ } { pf += $3; cf += $6 }
	END { printf "# change wins: kreq_s %d of %d, p50_us %d of %d; failed requests: parent %d, change %d\n", k, n, l, n, pf, cf }' "$rows"

#!/usr/bin/env bash
# Compares perfbench on the working tree against a base commit.
#
#   scripts/bench_compare.sh [BASE_REF]      (default HEAD)
#
# BENCHMARK.json names the command, the run length, the workloads and
# the end-to-end metrics with their direction and bound. The base is
# built from `git archive BASE_REF` under target/bench_compare/. Each
# workload runs 10 pairs: both sides of pair i use seed i+1, and the
# pairs alternate which side runs first. One row per workload and
# metric shows the base and change medians with quartiles, their ratio,
# the change's wins (the pairs in which it beats the base in the
# metric's `better` direction) and a status: `unresolved` when the
# base's interquartile spread is wider than the bound, `REGRESSED` when
# the change's median is worse than the base's by more than the bound,
# `ok` otherwise. The rows go to BENCH_perfbench.json.
#
# Exits non-zero on a REGRESSED row, and at once on a run that exits
# non-zero, is not correct or has failed operations.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10
spec=BENCHMARK.json
mapfile -t cmd < <(jq -r '.command[]' "$spec")
seconds=$(jq -r '.run_seconds' "$spec")
mapfile -t workloads < <(jq -r '.workloads[].name' "$spec")

base_sha=$(git rev-parse --verify "${1:-HEAD}^{commit}")
base_dir=target/bench_compare/$base_sha
if [[ ! -d $base_dir ]]; then
    mkdir -p target/bench_compare
    tmp=$(mktemp -d target/bench_compare/tmp.XXXXXX)
    git archive "$base_sha" | tar -x -C "$tmp"
    mv "$tmp" "$base_dir"
fi

results=$(mktemp -d)
trap 'rm -r "$results"' EXIT

# run SIDE WORKLOAD SEED: one perfbench run, its JSON line appended to
# $results/SIDE.WORKLOAD.
run() {
    local dir=. out
    [[ $1 == base ]] && dir=$base_dir
    if ! out=$(cd "$dir" && "${cmd[@]}" --workload "$2" --seed "$3" --seconds "$seconds" | tail -n 1); then
        echo "bench_compare: $1 run of $2 (seed $3) exited non-zero" >&2
        exit 1
    fi
    if ! jq -e '.correct and .failed == 0' <<<"$out" > /dev/null; then
        echo "bench_compare: $1 run of $2 (seed $3) failed its checks: $out" >&2
        exit 1
    fi
    echo "$out" >> "$results/$1.$2"
}

for w in "${workloads[@]}"; do
    echo "==> $w: $pairs pairs of ${seconds} s runs against ${base_sha:0:12}"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run base "$w" $((i + 1))
            run change "$w" $((i + 1))
        else
            run change "$w" $((i + 1))
            run base "$w" $((i + 1))
        fi
    done
done

rows=$(for w in "${workloads[@]}"; do
    jq -n --arg w "$w" --slurpfile spec "$spec" \
        --slurpfile base "$results/base.$w" --slurpfile change "$results/change.$w" '
        def q($p): sort | ((length - 1) * $p) as $h | ($h | floor) as $i
            | .[$i] + (.[[$i + 1, length - 1] | min] - .[$i]) * ($h - $i);
        def stats: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
        $spec[0].end_to_end[] as $m
        | [$base[].metrics[$m.name].value] as $bv
        | [$change[].metrics[$m.name].value] as $cv
        | ($bv | stats) as $b
        | ($cv | stats) as $c
        | ($c.median / $b.median) as $ratio
        | [range($bv | length)
           | select(if $m.better == "higher" then $cv[.] > $bv[.] else $cv[.] < $bv[.] end)]
        | length as $wins
        | {workload: $w, metric: $m.name, base: $b, change: $c, ratio: $ratio, wins: $wins,
           status: (if $b.q3 - $b.q1 > $m.bound * $b.median then "unresolved"
                    elif (if $m.better == "higher" then 1 - $ratio else $ratio - 1 end) > $m.bound
                    then "REGRESSED" else "ok" end)}'
done | jq -s .)

printf '%-8s %-18s %-30s %-30s %7s %5s  %s\n' workload metric 'base median [q1, q3]' \
    'change median [q1, q3]' ratio wins status
jq -r '.[] | [.workload, .metric, .base.median, .base.q1, .base.q3,
    .change.median, .change.q1, .change.q3, .ratio, .wins, .status] | @tsv' <<<"$rows" |
    while IFS=$'\t' read -r w m bm b1 b3 cm c1 c3 ratio wins status; do
        printf '%-8s %-18s %-30s %-30s %7.3f %5s  %s\n' "$w" "$m" \
            "$(printf '%.4g [%.4g, %.4g]' "$bm" "$b1" "$b3")" \
            "$(printf '%.4g [%.4g, %.4g]' "$cm" "$c1" "$c3")" "$ratio" "$wins/$pairs" "$status"
    done

# One row per line, so a diff of the file reads row by row.
{
    jq -cn --arg base "$base_sha" --argjson pairs "$pairs" --argjson nproc "$(nproc)" \
        --argjson seconds "$seconds" \
        '{base: $base, pairs: $pairs, nproc: $nproc, run_seconds: $seconds}' |
        sed 's/}$/,"rows":[/'
    jq -c '.[]' <<<"$rows" | sed '$!s/$/,/'
    echo ']}'
} > BENCH_perfbench.json

regressed=$(jq '[.[] | select(.status == "REGRESSED")] | length' <<<"$rows")
if ((regressed > 0)); then
    echo "bench_compare: $regressed metric(s) REGRESSED against ${base_sha:0:12}" >&2
    exit 1
fi
echo "bench_compare: no regression against ${base_sha:0:12}"

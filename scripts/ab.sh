#!/bin/sh
# A/B a perf claim the way the ledger README asks for it: alternating
# pairs (A B, B A, A B, …) of the parent commit's ledger and this tree's,
# on each of a space-separated list of workloads.
#
#   scripts/ab.sh "<workload> [<workload> …]" <parent-ref> [pairs=10] [seconds=6]
#
# A is <parent-ref>, exported (git archive, nothing registered in .git)
# into target/ab/parent; B is the working tree. Both ledgers are built
# once, from their own checkout; then, workload by workload, each pair
# runs `ledger --workload W --seed 42 --seconds S --trace 0` once per
# side, the side that goes first alternating. Prints, per workload and
# per end-to-end metric of BENCHMARK.json, each side's median and
# quartiles over the pairs, how many pairs B won and tied, and whether
# B's median beats A's by more than A's own interquartile distance —
# then whether the two sides' `sim_digest`s agree at seed 42 and at
# seed 7 (a speed-only claim must hold at both). Exits 1 if any
# workload had a failed run or a differing digest at either seed (the
# change moved behaviour, and the timings compare two different
# programs), after every workload has run. So a perf PR's claim table and its "must not
# move" table are one command. Reads the ledger; edits nothing under it.
set -eu

[ $# -ge 2 ] || {
    echo "usage: $0 \"<workload> [<workload> …]\" <parent-ref> [pairs=10] [seconds=6]" >&2
    exit 2
}
workloads=$1 parent=$2 pairs=${3:-10} seconds=${4:-6}
[ -n "$workloads" ] || { echo "$0: no workload named" >&2; exit 2; }

cd "$(dirname "$0")/.."
ledger=crates/daos-bench/src/bin/ledger
scratch=target/ab
a_root=$scratch/parent

rev=$(git rev-parse --verify "$parent^{commit}")
rm -rf "$a_root"
mkdir -p "$a_root"
git archive "$rev" | tar -x -C "$a_root"
echo "A = $parent ($(git rev-parse --short "$rev")) in $a_root, B = working tree;" \
    "$pairs pairs of ${seconds}s per workload, nproc $(nproc)"

cargo build --release --offline --quiet --manifest-path "$a_root/$ledger/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$ledger/Cargo.toml"
a_bin=$PWD/$a_root/$ledger/target/release/ledger
b_bin=$PWD/$ledger/target/release/ledger

# The end-to-end metrics and which way is better, from BENCHMARK.json.
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json \
    | sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1:\2/p')

# side_run SIDE ROOT BIN: one timed window of $workload; its last stdout
# line (the driver contract's {"correct","attempted","failed","metrics"})
# is appended to $scratch/SIDE.$workload.jsonl.
side_run() {
    (cd "$2" && "$3" --workload "$workload" --seed 42 --seconds "$seconds" --trace 0 2> /dev/null) \
        | tail -n 1 >> "$scratch/$1.$workload.jsonl"
}

# values FILE METRIC: one value per run, in run order.
values() {
    sed -n "s/.*\"$2\":{\"value\":\([-0-9.e+]*\).*/\1/p" "$1"
}

# digest ROOT BIN SEED: the sim_digest of one quick run of $workload.
digest() {
    (cd "$1" && "$2" --quick --workload "$workload" --seed "$3" 2> /dev/null) \
        | tail -n 1 | sed -n 's/.*"sim_digest":"\([0-9a-f]*\)".*/\1/p'
}

status=0
for workload in $workloads; do
    a_runs=$scratch/A.$workload.jsonl b_runs=$scratch/B.$workload.jsonl
    : > "$a_runs"
    : > "$b_runs"
    printf '\n== %s ' "$workload"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            side_run A "$a_root" "$a_bin"; side_run B . "$b_bin"
        else
            side_run B . "$b_bin"; side_run A "$a_root" "$a_bin"
        fi
        printf '.'
        i=$((i + 1))
    done
    echo

    if grep -hv '"correct":true,"attempted":[0-9]*,"failed":0,' "$a_runs" "$b_runs" | grep -q .; then
        echo "FAIL: $workload: a run was incorrect or had failed operations (see $a_runs, $b_runs)"
        status=1
        continue
    fi

    printf '%-18s %-4s %12s %12s %12s   %s\n' metric side p25 median p75 "B vs A"
    for m in $metrics; do
        name=${m%%:*} better=${m##*:}
        values "$a_runs" "$name" > "$scratch/a.col"
        values "$b_runs" "$name" > "$scratch/b.col"
        paste "$scratch/a.col" "$scratch/b.col" | awk -v name="$name" -v better="$better" '
            function q(v, n, p,    h, lo) {          # linear-interpolated quantile of sorted v[1..n]
                h = (n - 1) * p + 1; lo = int(h)
                return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
            }
            function sort(v, n,    i, j, t) {
                for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
            }
            {
                n++; a[n] = $1; b[n] = $2
                d = (better == "higher") ? $2 - $1 : $1 - $2
                if (d > 0) wins++; else if (d == 0) ties++
            }
            END {
                sort(a, n); sort(b, n)
                am = q(a, n, 0.5); bm = q(b, n, 0.5); iqr = q(a, n, 0.75) - q(a, n, 0.25)
                gain = (better == "higher") ? bm - am : am - bm
                verdict = sprintf("%d/%d won, %d tied, median %+.1f%%", wins, n, ties, 100 * gain / am)
                if (gain > iqr) verdict = verdict " (> A'"'"'s IQR)"
                printf "%-18s %-4s %12.4g %12.4g %12.4g\n", name, "A", q(a, n, 0.25), am, q(a, n, 0.75)
                printf "%-18s %-4s %12.4g %12.4g %12.4g   %s\n", name, "B", q(b, n, 0.25), bm, q(b, n, 0.75), verdict
            }'
    done

    # Speed-only or not: one quick run per side and seed prints the digest.
    for seed in 42 7; do
        a_digest=$(digest "$a_root" "$a_bin" "$seed")
        b_digest=$(digest . "$b_bin" "$seed")
        if [ -n "$a_digest" ] && [ "$a_digest" = "$b_digest" ]; then
            echo "sim_digest at seed $seed: equal ($a_digest)"
        else
            echo "FAIL: $workload: sim_digest at seed $seed differs:" \
                "A ${a_digest:-none} B ${b_digest:-none}"
            status=1
        fi
    done
done
exit "$status"

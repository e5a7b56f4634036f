#!/bin/sh
# Tier-1 verification: hermetic offline build + full test suite, plus
# the static checks of the workspace invariants. Clippy checks the rules
# about types: no printing from library code, panic discipline,
# wall-clock-free simulation crates, and every lock taken through
# `daos_util::sync`, which asserts the leaf-lock rule in debug builds.
# The in-tree `daos-lint` checks the rest on the token stream: justified
# atomic orderings, no dead tracepoints, machine-parseable metric keys,
# and no public item that nothing reads. It also runs `reproduce`, every
# figure and table, once.
#
# The workspace must build from a clean clone with no network and an
# empty registry cache; every dependency is an in-tree path dependency
# (see README "Zero-dependency policy"). Cargo's resolver states that
# itself: a package that is not a path dependency gets a `source = `
# line in Cargo.lock, so the build is `--locked` and the lockfiles must
# carry none.
set -eu

cd "$(dirname "$0")/.."

# bench_gate BIN BASELINE OUT WHAT: a fresh full run of target/release/BIN
# into OUT must be non-empty, the committed BASELINE must be well-formed,
# and OUT's gated statistic must sit within BASELINE + 50 % (the bench
# binaries' `GATE_MARGIN_PCT`).
bench_gate() {
    DAOS_BENCH_OUT="$3" "target/release/$1" > /dev/null
    [ -s "$3" ] || { echo "FAIL: $1 artifact empty"; exit 1; }
    "target/release/$1" --check "$2" || {
        echo "FAIL: committed $2 is not well-formed JSON"; exit 1
    }
    "target/release/$1" --check "$3" --baseline "$2" || {
        echo "FAIL: $4 regressed past the committed baseline + margin"
        echo "(compare $3 against $2; if the"
        echo "slowdown is intentional, regenerate the baseline with"
        echo "'cargo run --release -p daos-bench --bin $1')"
        exit 1
    }
}

# serve_bg LOG WHAT CMD...: start CMD (a `--serve 127.0.0.1:0` run) in
# the background with its output in LOG and wait for it to announce its
# address. Sets $served_pid and $served_addr.
serve_bg() {
    log=$1 what=$2
    shift 2
    : > "$log" # exists before the first poll, whoever is scheduled first
    "$@" >> "$log" 2>&1 &
    served_pid=$!
    served_addr=""
    for _ in $(seq 1 50); do
        served_addr=$(sed -n 's/^serving observability on \([0-9.:]*\)$/\1/p' "$log")
        [ -n "$served_addr" ] && return 0
        sleep 0.1
    done
    echo "FAIL: $what never announced its address"
    kill "$served_pid" 2>/dev/null
    exit 1
}

# no_sources LOCKFILE: every package Cargo resolved is an in-tree path.
no_sources() {
    [ -s "$1" ] || { echo "FAIL: $1 is missing or empty"; exit 1; }
    if grep -n '^source = ' "$1"; then
        echo "FAIL: $1 resolves a package from outside the tree"
        exit 1
    fi
}

echo "== offline, locked release build (must be warning-free) =="
# `--locked` refuses a manifest edit the committed Cargo.lock does not
# already carry, so a new dependency has to show up in the lockfile.
# `cargo build` replays cached warnings for already-built crates, so
# grepping the build output catches warnings even on incremental runs.
no_sources Cargo.lock
build_log=$(cargo build --release --offline --locked --workspace 2>&1) || {
    echo "$build_log"
    exit 1
}
if echo "$build_log" | grep -q "^warning"; then
    echo "$build_log" | grep -A 5 "^warning"
    echo "FAIL: release build emits warnings"
    exit 1
fi
echo "ok"

echo "== rustdoc: no broken or ambiguous links =="
# A doc link is a claim about where something lives; a refactor that
# moves the thing has to move the claim.
doc_log=$(RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace 2>&1) || {
    echo "$doc_log" | grep -A 12 "^error"
    echo "FAIL: rustdoc reports broken or ambiguous doc links"
    exit 1
}
echo "ok"

echo "== one engine: no shipped experiment re-composes the epoch loop =="
# The monitor-step / charge / on_aggregation / charge sequence lives in
# the engine (crates/daos/src/fleet.rs). Outside it only the substrate
# that defines the call, the ledger's adapter (ROADMAP 2(b)'s debt) and
# ext_lru_sort.rs (its access script is not a WorkloadSpec) may name it.
loops=$(grep -rl 'charge_monitor(' --include='*.rs' crates/*/src crates/*/tests examples tests \
    | grep -v -e '^crates/daos-mm/' -e '^crates/daos/src/fleet\.rs$' \
        -e '^crates/daos-bench/src/bin/ledger/' \
        -e '^crates/daos-bench/src/bin/reproduce/ext_lru_sort\.rs$' || true)
if [ -n "$loops" ]; then
    echo "$loops"
    echo "FAIL: hand-rolled epoch loop — drive the engine through Session"
    exit 1
fi
echo "ok"

echo "== daos-lint: workspace invariants =="
# The token-level checks clippy cannot express: a comment/string-aware
# lexer, so doc examples and multiline macro calls can neither
# false-positive nor slip through. See DESIGN.md §11.
lint_out=$(cargo run -q -p daos-lint --release --offline -- --json) || {
    echo "$lint_out"
    echo "FAIL: daos-lint found workspace-invariant violations"
    echo "(run 'cargo run -p daos-lint --release' for the human-readable list)"
    exit 1
}
# "Clean" must mean the dead-pub pass actually ran: the report's lint
# roster has to advertise it, or the gate is vacuous — and must not
# advertise a deleted pass, or a stale binary answered.
for pass in lock-order no-registry-deps no-print panic-discipline determinism guard-discipline; do
    case "$lint_out" in
        *"\"$pass\""*)
            echo "$lint_out"
            echo "FAIL: daos-lint --json still lists the deleted $pass pass — stale binary?"
            exit 1
            ;;
    esac
done
case "$lint_out" in
    *'"dead-pub"'*) ;;
    *)
        echo "$lint_out"
        echo "FAIL: daos-lint --json lint roster lacks the dead-pub pass"
        exit 1
        ;;
esac
echo "ok"

echo "== clippy: the print, panic, wall-clock and lock rules =="
# clippy.toml lists the forbidden methods and types; these are the
# levels. Libraries, binaries and examples are checked, not integration
# tests. The test profile checks `#[cfg(test)]` code too, which may
# unwrap, expect and panic (clippy.toml) but not print. The wall-clock
# rule is off here and on where a simulation crate's root denies it. An
# exemption is an attribute on the code it exempts, and an `#[expect]`
# that nothing meets any more fails the gate. See DESIGN.md §11. (The
# levels are expanded unquoted: one word each.)
clippy_levels="-D clippy::print_stdout -D clippy::print_stderr -D clippy::unwrap_used
    -D clippy::expect_used -D clippy::panic -D clippy::unreachable -D clippy::todo
    -D clippy::unimplemented -D clippy::disallowed_methods -A clippy::disallowed_types
    -D clippy::incompatible_msrv -D unfulfilled_lint_expectations"
# clippy_gate ARGS...: the gate's one invocation, on the tree or a fixture.
clippy_gate() {
    cargo clippy --workspace --lib --bins --examples --offline --locked --profile test "$@" \
        -- $clippy_levels
}
clippy_log=$(clippy_gate 2>&1) || {
    echo "$clippy_log" | grep -A 12 "^error"
    echo "FAIL: clippy reports a print, panic, wall-clock or lock rule violation"
    exit 1
}
# The perf ledger is a package of its own (BENCHMARK.json's harness,
# unchanged across the commits it compares), so it is checked on its
# own, and its exemption as a binary is given on this command line.
clippy_log=$(cargo clippy --offline --profile test \
        --manifest-path crates/daos-bench/src/bin/ledger/Cargo.toml -- $clippy_levels \
        -A clippy::print_stdout -A clippy::print_stderr -A clippy::unwrap_used \
        -A clippy::expect_used -A clippy::panic 2>&1) || {
    echo "$clippy_log" | grep -A 12 "^error"
    echo "FAIL: clippy reports a lock rule violation in the perf ledger"
    exit 1
}
# The gate must fire: on its fixture, the same invocation reports each
# violating case, counted by lint, and none of the silent ones.
clippy_fixture=crates/daos-lint/tests/fixtures/clippy
if clippy_log=$(clippy_gate --keep-going --manifest-path "$clippy_fixture/Cargo.toml" \
        --target-dir target/clippy-fixture --message-format=json 2>/dev/null); then
    echo "FAIL: the clippy gate passed $clippy_fixture, which breaks every rule"
    exit 1
fi
clippy_found=$(echo "$clippy_log" | grep -o '"code":{"code":"[a-z_:]*"' \
    | sed 's/.*"\([a-z_:]*\)"$/\1/' | sort | uniq -c | awk '{ print $2, $1 }')
clippy_expected="clippy::disallowed_methods 4
clippy::disallowed_types 2
clippy::expect_used 1
clippy::incompatible_msrv 1
clippy::panic 1
clippy::print_stderr 1
clippy::print_stdout 2
clippy::todo 1
clippy::unimplemented 1
clippy::unreachable 1
clippy::unwrap_used 1
unfulfilled_lint_expectations 1"
[ "$clippy_found" = "$clippy_expected" ] || {
    echo "$clippy_found"
    echo "FAIL: the clippy gate's findings on $clippy_fixture differ from the expected count per lint"
    exit 1
}
echo "ok"

echo "== live lines per package (daos-lint --json live_loc) =="
# Non-comment, non-test lines under each package's src/: the number a
# simplification PR quotes before and after (ROADMAP aim 2).
echo "$lint_out" | sed 's/.*"live_loc":{\([^}]*\)}.*/\1/' | tr ',' '\n' | tr -d '"' \
    | awk -F: '
    { n[$1] = $2; printf "  %-42s %6d\n", $1, $2 }
    END {
        paper = n["crates/daos-mm"] + n["crates/daos-monitor"] \
            + n["crates/daos-schemes"] + n["crates/daos-tuner"]
        support = n["crates/daos-obs"] + n["crates/daos-lint"] + n["crates/daos-util"]
        printf "  %-42s %6d\n", "paper layers (mm+monitor+schemes+tuner)", paper
        printf "  %-42s %6d\n", "support (obs+lint+util)", support
        printf "  %-42s %6d\n", "driver (crates/daos)", n["crates/daos"]
        exit !(paper > 0 && support > 0 && n["crates/daos"] > 0)
    }' || {
    echo "FAIL: daos-lint --json carries no live_loc for the named packages"
    exit 1
}

echo "== wire inventory: every JSON codec is one a shipped tool writes or reads =="
# DESIGN.md §7's table is the list of what crosses a process boundary.
# A json_struct! / json_enum! / `impl ToJson for` site (outside the JSON
# library itself and the ledger's own package) naming a type the table
# lacks is a codec without a wire: delete it, or add the tool and the row.
inventory=$(sed -n '/^### Wire inventory$/,/^## 8\. /p' DESIGN.md | grep '^|')
for t in $(grep -rnoE 'json_(struct|enum)!\([A-Za-z0-9_]+|impl(<[^>]*>)? ToJson for [A-Za-z0-9_]+' \
        --include='*.rs' --exclude-dir=ledger crates/*/src \
    | grep -v '^crates/daos-util/src/json\.rs:' | sed 's/.*[ (]//' | sort -u); do
    echo "$inventory" | grep -q "\`$t\`" || {
        echo "FAIL: $t has a JSON codec but no row in DESIGN.md §7's wire inventory"
        exit 1
    }
    codecs="${codecs:-} $t"
done
[ -n "${codecs:-}" ] || { echo "FAIL: found no codec sites — the guard's grep rotted"; exit 1; }
echo "ok:$codecs"

echo "== golden: fixed-seed trace reports are byte-stable =="
# Record a small fixed-seed trace and diff the offline reports against
# checked-in golden files. Any drift in the monitor, the trace schema,
# or the report renderers shows up here as a diff.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
target/release/daos trace parsec3/freqmine --config rec --epochs 200 \
    --seed 42 --ring 1048576 --out "$tmp/trace.jsonl" > /dev/null
target/release/daos report wss "$tmp/trace.jsonl" > "$tmp/wss.txt"
target/release/daos report summary "$tmp/trace.jsonl" > "$tmp/summary.txt"
diff -u tests/golden/trace_wss.txt "$tmp/wss.txt" || {
    echo "FAIL: report wss drifted from tests/golden/trace_wss.txt"
    exit 1
}
diff -u tests/golden/trace_summary.txt "$tmp/summary.txt" || {
    echo "FAIL: report summary drifted from tests/golden/trace_summary.txt"
    exit 1
}
# `daos record` writes the same format from the in-memory record: every
# report kind must load it, and the record views must have something to
# say about it.
target/release/daos record parsec3/freqmine --seed 42 --out "$tmp/rec.jsonl" > /dev/null
target/release/daos report summary "$tmp/rec.jsonl" > /dev/null || {
    echo "FAIL: report summary rejects a daos record file"
    exit 1
}
target/release/daos report wss --distribution "$tmp/rec.jsonl" > "$tmp/rec_dist.txt"
target/release/daos report heatmap "$tmp/rec.jsonl" > "$tmp/rec_heat.txt"
[ -s "$tmp/rec_dist.txt" ] && [ -s "$tmp/rec_heat.txt" ] || {
    echo "FAIL: report wss --distribution / heatmap printed nothing for a daos record file"
    exit 1
}
echo "ok"

echo "== golden: a served trace's stdout is the same trace =="
# A served run's status lines go to stderr, and serving moves neither
# the run nor the stream: the JSONL a served `daos trace` writes to
# stdout summarises to the same golden file.
target/release/daos trace parsec3/freqmine --config rec --epochs 200 --seed 42 \
    --ring 1048576 --serve 127.0.0.1:0 > "$tmp/served.jsonl" 2> "$tmp/served.err"
target/release/daos report summary "$tmp/served.jsonl" > "$tmp/served_summary.txt" || {
    cat "$tmp/served.err"
    echo "FAIL: report summary rejects a served trace's stdout"
    exit 1
}
diff -u tests/golden/trace_summary.txt "$tmp/served_summary.txt" || {
    echo "FAIL: a served trace summarises differently from tests/golden/trace_summary.txt"
    exit 1
}
echo "ok"

echo "== reproduction: every figure and table runs on the quick grid =="
# One `reproduce` run regenerates all thirteen figures and tables into
# one DAOS_RESULTS directory: it must exit 0 under DAOS_QUICK=1 and leave
# each figure's CSVs there, non-empty and under their own names. Without
# the variable the same run uses the paper's grids (EXPERIMENTS.md).
DAOS_QUICK=1 DAOS_RESULTS="$tmp/results" target/release/reproduce > "$tmp/reproduce.log" 2>&1 || {
    tail -20 "$tmp/reproduce.log"
    echo "FAIL: reproduce exited non-zero under DAOS_QUICK=1"
    exit 1
}
csvs="table1_actions table2_machines fig3_canonical fig4_scores fig4_patterns fig5_curves
    fig5_samples fig6_heatmaps fig7_overhead_benefit fig8_autotune fig9_production
    ablation_adaptive ablation_tuner ext_damon_reclaim ext_lru_sort"
for csv in $csvs; do
    [ -s "$tmp/results/$csv.csv" ] || {
        echo "FAIL: reproduce left no non-empty $csv.csv in DAOS_RESULTS"
        exit 1
    }
done
echo "ok: $(echo $csvs | wc -w) CSVs"

echo "== live observability endpoints answer during a real run =="
# Spawn a served run on an ephemeral port, scrape /healthz and /metrics
# with the std-only obs-get client (which also validates the exposition
# format), then kill the lingering server. The plane exports and leaves
# judging to the scraper: a binary that still has the `alerts`
# subcommand (removed with the rule engine) is a stale one.
rc=0
target/release/daos alerts x > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "FAIL: 'daos alerts x' exited $rc, not 2 — stale binary?"; exit 1; }
serve_bg "$tmp/serve.log" "served run" \
    target/release/daos run parsec3/freqmine --config rec --epochs 200 --seed 42 \
    --serve 127.0.0.1:0 --linger
serve_pid=$served_pid addr=$served_addr
health=$(target/release/obs-get "$addr" /healthz) || {
    echo "FAIL: /healthz unreachable on $addr"; kill "$serve_pid" 2>/dev/null; exit 1
}
[ "$health" = "ok" ] || { echo "FAIL: /healthz said '$health'"; kill "$serve_pid" 2>/dev/null; exit 1; }
target/release/obs-get "$addr" /metrics > "$tmp/metrics.txt" || {
    echo "FAIL: /metrics unreachable or invalid exposition"; kill "$serve_pid" 2>/dev/null; exit 1
}
[ -s "$tmp/metrics.txt" ] || { echo "FAIL: /metrics body empty"; kill "$serve_pid" 2>/dev/null; exit 1; }
kill "$serve_pid" 2>/dev/null
wait "$serve_pid" 2>/dev/null || true
echo "ok"

echo "== fleet smoke: 256 processes, per-tenant /metrics families =="
# A served fleet run: the sharded engine must complete, print the fleet
# summary, and publish per-tenant label families on /metrics (the
# registry folds tenant.<t>.* counters into daos_tenant_*{tenant="t"}).
serve_bg "$tmp/fleet.log" "fleet run" \
    target/release/daos fleet --processes 256 --epochs 30 --tenants 4 --seed 42 \
    --serve 127.0.0.1:0 --linger
fleet_pid=$served_pid faddr=$served_addr
# Wait for the run to complete (the summary prints before --linger), so
# the scrape below sees the finalized snapshot.
fleet_done=""
for _ in $(seq 1 300); do
    if grep -q "^fleet    256 procs" "$tmp/fleet.log"; then
        fleet_done=1
        break
    fi
    sleep 0.1
done
[ -n "$fleet_done" ] || {
    echo "FAIL: fleet run never printed its summary"
    cat "$tmp/fleet.log"
    kill "$fleet_pid" 2>/dev/null
    exit 1
}
target/release/obs-get "$faddr" /metrics > "$tmp/fleet_metrics.txt" || {
    echo "FAIL: fleet /metrics unreachable or invalid exposition"
    kill "$fleet_pid" 2>/dev/null
    exit 1
}
# The server's own /statusz must answer with its worker-pool state.
target/release/obs-get "$faddr" /statusz > "$tmp/fleet_statusz.txt" || {
    echo "FAIL: fleet /statusz unreachable"
    kill "$fleet_pid" 2>/dev/null
    exit 1
}
for field in in_flight accepted_total history_series; do
    grep -q "\"$field\":[0-9]" "$tmp/fleet_statusz.txt" || {
        echo "FAIL: /statusz lacks a numeric $field"
        cat "$tmp/fleet_statusz.txt"
        kill "$fleet_pid" 2>/dev/null
        exit 1
    }
done
# The metric history behind /query must have recorded the fleet gauge on
# every publish: a non-empty, monotonically non-decreasing series.
target/release/obs-get "$faddr" '/query?metric=daos_fleet_nr_processes' \
    > "$tmp/fleet_query.json" || {
    echo "FAIL: fleet /query unreachable or unknown metric"
    kill "$fleet_pid" 2>/dev/null
    exit 1
}
tr '[' '\n' < "$tmp/fleet_query.json" \
    | sed -n 's/^[0-9.e+-]*,\([0-9.e+-]*\)\].*$/\1/p' \
    | awk 'NR > 1 && $1 + 0 < prev { down = 1 } { prev = $1 + 0 } END { exit NR == 0 || down }' || {
    echo "FAIL: /query daos_fleet_nr_processes series empty or non-monotonic"
    cat "$tmp/fleet_query.json"
    kill "$fleet_pid" 2>/dev/null
    exit 1
}
kill "$fleet_pid" 2>/dev/null
wait "$fleet_pid" 2>/dev/null || true
grep -q 'daos_tenant_rss_bytes{tenant="t3"}' "$tmp/fleet_metrics.txt" || {
    echo "FAIL: /metrics lacks the per-tenant label families"
    head -40 "$tmp/fleet_metrics.txt"
    exit 1
}
grep -q '^daos_fleet_nr_processes 256$' "$tmp/fleet_metrics.txt" || {
    echo "FAIL: /metrics lacks the fleet-level gauges"
    head -40 "$tmp/fleet_metrics.txt"
    exit 1
}
# The paper's Conclusion 3: monitoring costs at most 5 % of one CPU per
# process. The plane exports the fleet's share; this is its reader.
awk '$1 == "daos_obs_monitor_share_permille" { seen = 1; high = $2 + 0 > 50 }
     END { exit !seen || high }' "$tmp/fleet_metrics.txt" || {
    echo "FAIL: daos_obs_monitor_share_permille missing from /metrics or above 50"
    grep monitor_share "$tmp/fleet_metrics.txt"
    exit 1
}
echo "ok"

echo "== fleet: results independent of worker count =="
# Shards are stamped from one image and run inline (1 worker) or over
# the pool (2): everything the summary prints except the worker count
# in its header line must be byte-equal. 100 processes make three full
# shards and a remainder shard.
for w in 1 2; do
    target/release/daos fleet --processes 100 --epochs 20 --seed 42 --workers "$w" \
        | grep -v '^fleet    ' > "$tmp/fleet_workers_$w.txt"
    [ -s "$tmp/fleet_workers_$w.txt" ] || { echo "FAIL: daos fleet --workers $w printed nothing"; exit 1; }
done
diff -u "$tmp/fleet_workers_1.txt" "$tmp/fleet_workers_2.txt" || {
    echo "FAIL: daos fleet summary depends on --workers"
    exit 1
}
echo "ok"

echo "== fleet: memory bounded by workers, not by fleet size =="
# Shards run one at a time per worker and retire as they finish, so a
# 313-shard fleet fits an address-space limit a dozen live shards would
# not (every shard alive at once is ~2.4 GiB). No tool needed: the run
# either allocates under the limit or aborts.
for w in 1 2; do
    ( ulimit -v $((131072 * w))
      target/release/daos fleet --processes 10000 --epochs 50 --seed 42 --workers "$w" ) \
        > "$tmp/fleet_10k_$w.txt" || {
        echo "FAIL: the 10,000-process fleet on $w worker(s) did not fit $((128 * w)) MiB"
        exit 1
    }
done
grep -q '^fleet    10000 procs in 313 shards' "$tmp/fleet_10k_1.txt" || {
    echo "FAIL: the 10,000-process fleet printed no summary"
    exit 1
}
grep -v '^fleet    ' "$tmp/fleet_10k_1.txt" > "$tmp/fleet_10k_1.body"
grep -v '^fleet    ' "$tmp/fleet_10k_2.txt" | diff -u "$tmp/fleet_10k_1.body" - || {
    echo "FAIL: the 10,000-process summary depends on --workers"
    exit 1
}
echo "ok"

echo "== engine profile: --profile-wall accounts for the wall =="
# The engine's own lane (DESIGN §13): a table row per phase, and rows
# that attribute at least 95 % of the session's wall — inline (a single
# run, short and at the benchmark's full length under prcl, where the
# glue between 26,000 epochs' laps once went unbooked) and with the shard
# phases on a worker pool (a 64-process fleet).
profile_check() {
    out=$1
    for phase in build stamp workload monitor schemes khugepaged barrier progress retire drop; do
        grep -Eq "^$phase\*? " "$out" || {
            echo "FAIL: the --profile-wall table has no $phase row"
            cat "$out"
            exit 1
        }
    done
    awk '$1 == "attributed" { seen = 1; low = $(NF - 1) + 0 < 95 } END { exit !seen || low }' \
        "$out" || {
        echo "FAIL: the --profile-wall rows cover under 95 % of wall"
        cat "$out"
        exit 1
    }
}
target/release/daos run parsec3/freqmine --epochs 200 --profile-wall > "$tmp/profile_run.txt"
profile_check "$tmp/profile_run.txt"
target/release/daos run parsec3/freqmine --config prcl --profile-wall > "$tmp/profile_prcl.txt"
profile_check "$tmp/profile_prcl.txt"
target/release/daos fleet --processes 64 --epochs 5 --profile-wall > "$tmp/profile_fleet.txt"
profile_check "$tmp/profile_fleet.txt"
echo "ok"

echo "== peak RSS: host memory in proportion to live pages and regions =="
# peak_rss_check <run> <MiB> <daos subcommand> <args…>: the process's
# VmHWM, printed under the --profile-wall table, must be there and at
# most MiB.
peak_rss_check() {
    name=$1 limit=$2
    shift 2
    target/release/daos "$@" --profile-wall > "$tmp/profile_$name.txt"
    profile_check "$tmp/profile_$name.txt"
    awk -v limit="$limit" '$1 == "peak" && $2 == "RSS" { seen = 1; high = $3 + 0 > limit }
        END { exit !seen || high }' "$tmp/profile_$name.txt" || {
        echo "FAIL: $name's peak RSS is missing or above $limit MiB"
        cat "$tmp/profile_$name.txt"
        exit 1
    }
    echo "$name: $(grep '^peak RSS' "$tmp/profile_$name.txt")"
}
# canneal under prcl pages out and refaults its pages for its whole run.
# Its LRU entries once grew with that history (≈ 415k queued for ≈ 1.3k
# resident pages, VmHWM ≈ 9.3 MiB); the lists are now held to
# 2 × frames in use + 4096 entries (DESIGN §5): ≈ 3.5 MiB.
peak_rss_check canneal_prcl 6 run parsec3/canneal --config prcl
# ocean_ncp under rec keeps every aggregation window: 273,282 regions in
# 979. At 24 bytes a region and a Vec per window the record made VmHWM
# ≈ 9.7 MiB, as four varints a region ≈ 4.8 MiB; with a region's count
# and age in one varint, lengths in pages and the window headers in the
# stream, ≈ 2.4 bytes a region (DESIGN §12), it reads ≈ 4.1 MiB. The
# `record` line under it gives the record's own heap bytes.
peak_rss_check ocean_ncp_rec 4.5 run splash2x/ocean_ncp --config rec
grep '^record [0-9]* windows, [0-9]* regions, [0-9]* bytes' "$tmp/profile_ocean_ncp_rec.txt" || {
    echo "FAIL: a recording run's --profile-wall has no record line"
    cat "$tmp/profile_ocean_ncp_rec.txt"
    exit 1
}
# ocean_ncp under ethp is the sampling sweep's workload: `monitor` is
# ≈ 80 % of its wall, nearly all of it the column kernel (DESIGN §12).
# It keeps no record, so VmHWM is the substrate and the region set:
# ≈ 3.7 MiB.
peak_rss_check ocean_ncp_ethp 6 run splash2x/ocean_ncp --config ethp
# The default fleet on one worker: 31 shards of 32 stamped from one
# frozen image, and a remainder of 8 whose slot builds its own image
# after the last full shard has dropped the shared one. A stamp copies a
# chunk's bitmaps and shares its page arrays until it writes them, and a
# page costs the host an 8-byte rmap entry and a 12-byte LRU entry
# (DESIGN §13): ≈ 8.1 MiB. Fault service and pressure reclaim work a
# (VMA, 2 MiB chunk) run at a time through scratch buffers that a copy of
# the machine starts empty, which moved it by less than 0.1 MiB while
# they took about a third off `build` and a quarter off `workload`
# (DESIGN §5). ≈ 10.3 MiB with 16-byte entries of both kinds
# and a freeze that copied every page array; ≈ 12.9 MiB while every
# stamp deep-copied its page tables and the remainder's image was built
# up front and held for the whole run.
peak_rss_check fleet_1000 9 fleet --processes 1000 --epochs 50 --workers 1
awk '$1 == "build" { calls = $NF } END { exit calls != 2 }' "$tmp/profile_fleet_1000.txt" || {
    echo "FAIL: a fleet with a remainder builds one image in FleetEngine::new and one in its slot"
    cat "$tmp/profile_fleet_1000.txt"
    exit 1
}
echo "ok"

echo "== offline test suite (workspace) =="
cargo test -q --offline --workspace

echo "== perf ledger (BENCHMARK.json's command) builds and passes its tests =="
# The ledger is a package of its own outside the workspace, so nothing
# above compiles it: an API change that breaks its adapter shows here.
ledger=crates/daos-bench/src/bin/ledger
cargo test -q --release --offline --manifest-path $ledger/Cargo.toml
no_sources $ledger/Cargo.lock

echo "== speed-only guard: the benchmark's workloads reproduce the recorded sim_digest =="
# A layout or fast-path change may move host time only. Each BENCHMARK.json
# workload, run once at seed 42 and once at seed 7, must hash to the
# sim_digest recorded in the ledger's baseline for that seed (read here,
# never written).
digest() { grep -o '"sim_digest":"[0-9a-f]*"' | head -1; }
for run in 42:ledger_A1.json 7:ledger_seed7.json; do
    seed=${run%%:*} baseline=baseline/${run#*:}
    for w in $(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json); do
        want=$(grep -o "\"$w\":{.*" $ledger/$baseline | digest)
        got=$(cargo run -q --release --offline --manifest-path $ledger/Cargo.toml -- \
            --quick --workload "$w" --seed "$seed" 2>/dev/null | tail -1 | digest)
        [ -n "$want" ] && [ "$got" = "$want" ] || {
            echo "FAIL: $w at seed $seed: $got, $baseline records $want"
            exit 1
        }
        echo "  $w seed $seed $got"
    done
done
echo "ok"

echo "== telemetry: JSONL replay re-derives the Fig. 7 bound =="
cargo test -q --offline --test trace_replay

# The three timing gates run last, after every correctness step — the
# workspace suite, the ledger's tests, the speed-only guard and the
# trace replay — so that a slow neighbour on a shared box, which can
# stop a gate, never hides whether the program is right.
echo "== bench pipeline: well-formed artifact, hot paths within baseline =="
# A full run takes <1 s. Timing lanes are gated on min-of-N,
# which moves only with a systematic slowdown, so a 50 % margin holds on
# a shared CI machine and still catches any real hot-path regression
# (PR 15's parent was 3.2x / 5x over on the fleet build and the resident
# touch walk). These micro lanes gate hot paths per layer; every
# end-to-end number belongs to the ledger (DESIGN.md §10).
bench_gate pipeline BENCH_pipeline.json "$tmp/bench.json" "hot-path bench"
echo "ok"

echo "== bench fleet: 1k-process tick and run within baseline =="
# Same gate as the pipeline's, on min-of-N.
bench_gate fleet_bench BENCH_fleet.json "$tmp/fleet_bench.json" "fleet tick bench"
echo "ok"

echo "== bench obs: load-test p50s within baseline, counts equality-pinned =="
# The obs server under a 200-client keep-alive storm per endpoint.
# obs_bench refuses to write an artifact unless the server's own
# daos_obs_http_requests_total{endpoint=...} exactly matches the
# client-side request counts, so this step also proves the server's
# self-telemetry under load. The gate compares per-endpoint p50s.
bench_gate obs_bench BENCH_obs.json "$tmp/obs_bench.json" "obs endpoint latency"
echo "ok"

echo "verify: OK"

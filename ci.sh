#!/bin/sh
# Offline CI: build, test, lint. No network access required — the
# workspace has no registry dependencies.
set -eu

cd "$(dirname "$0")"

echo "=== cargo fmt --check ==="
cargo fmt --all --check

echo "=== cargo build --release ==="
cargo build --workspace --release --offline

echo "=== cargo test ==="
cargo test --workspace --release --offline -q

echo "=== cargo clippy -D warnings ==="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "=== cargo doc -D warnings ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "=== bench smoke (BENCH_FAST) ==="
BENCH_FAST=1 cargo bench -p vic-bench --offline -q >/dev/null

echo "=== perfbench smoke and tests ==="
# The repository benchmark is a cargo package of its own (not a workspace
# member), so the workspace build and test steps above do not reach it.
# --smoke runs one checked pass of every workload plus one traced run.
cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --smoke >/dev/null
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "=== sweep smoke (--quick) ==="
sweep_json="$(mktemp)"
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --quick --json "$sweep_json" >/dev/null
test -s "$sweep_json" || { echo "sweep wrote no JSON"; exit 1; }
rm -f "$sweep_json"

echo "=== hostbench smoke (tiny grid) ==="
# Host-throughput rig: measure the tiny grid once into a scratch file,
# then schema-validate both it and the committed BENCH_host.json. No
# wall-clock gating — CI machines vary; the numbers are informational.
host_json="$(mktemp)"
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --tiny --reps 1 --label ci-smoke --json "$host_json" >/dev/null
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --check "$host_json" >/dev/null
rm -f "$host_json"
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --check BENCH_host.json >/dev/null

echo "=== metrics smoke (sweep --metrics / --check-metrics) ==="
# Fleet telemetry: a tiny sweep must export a metrics document whose
# fleet roll-ups cross-validate against its per-run list, and the
# standalone validator must accept it. The hostbench export shares the
# schema, so the same validator reads it.
metrics_json="$(mktemp)"; scratch_json="$(mktemp)"
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --quick --threads 2 --json "$scratch_json" --metrics "$metrics_json" >/dev/null
grep -q '"engine_version":3' "$metrics_json" || { echo "metrics doc missing version"; exit 1; }
grep -q '"runs_completed":23' "$metrics_json" || { echo "metrics doc missing fleet totals"; exit 1; }
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --check-metrics "$metrics_json" >/dev/null
# (truncate the scratch file first: it holds sweep JSON, not a host doc)
: > "$scratch_json"
cargo run --release -p vic-bench --bin hostbench --offline -q -- \
    --tiny --reps 1 --label ci-metrics --json "$scratch_json" --metrics "$metrics_json" >/dev/null
cargo run --release -p vic-bench --bin sweep --offline -q -- \
    --check-metrics "$metrics_json" >/dev/null
rm -f "$metrics_json" "$scratch_json"

echo "=== flight-recorder smoke (chaos divergence dump) ==="
# A sabotaged manager must trip the auditor and leave a post-mortem:
# reason, divergences, the last trace events, and a machine snapshot.
# The run exits 1 (oracle/audit failure) — that's the point.
flight_json="$(mktemp -u)"
if cargo run --release -p vic-bench --bin run --offline -q -- \
    fork-bench chaos-flushes --quick --flight "$flight_json" >/dev/null; then
    echo "chaos run unexpectedly clean"; exit 1
fi
test -s "$flight_json" || { echo "flight recorder wrote no dump"; exit 1; }
grep -q '"engine_version":3' "$flight_json" || { echo "flight dump missing version"; exit 1; }
grep -q '"divergence_count":' "$flight_json" || { echo "flight dump missing divergences"; exit 1; }
grep -q '"snapshot":{"engine_version":3' "$flight_json" || { echo "flight dump missing snapshot"; exit 1; }
rm -f "$flight_json"

echo "=== bulk-vs-word smoke (--no-fast-paths) ==="
# The bulk-run engine must be observably invisible: the run binary's full
# report (simulated values only — no host wall time on stdout) must be
# byte-identical with the fast paths force-disabled. The determinism
# suite proves this over the whole quick grids; this smoke keeps the flag
# itself honest.
bulk_out="$(mktemp)"; word_out="$(mktemp)"
cargo run --release -p vic-bench --bin run --offline -q -- \
    kernel-build F --quick >"$bulk_out"
cargo run --release -p vic-bench --bin run --offline -q -- \
    kernel-build F --quick --no-fast-paths >"$word_out"
cmp "$bulk_out" "$word_out" || { echo "bulk runs changed observable output"; exit 1; }
rm -f "$bulk_out" "$word_out"

echo "=== checkpoint smoke (--checkpoint-at / --restore round trip) ==="
# Pausing a run into a checkpoint and resuming it in a new process must
# be invisible: the final stats JSON is byte-identical to a straight run
# (minus host wall time). The committed fixture locks the schema: it must
# stay restorable at this engine version (after an intentional format
# change, bump ENGINE_VERSION and regenerate it with:
#   cargo run --release -p vic-bench --bin run -- \
#       fork-bench F --quick --checkpoint-at 20000 --checkpoint BENCH_checkpoint.json)
cp_json="$(mktemp -u)"; full_json="$(mktemp)"; resumed_json="$(mktemp)"
cargo run --release -p vic-bench --bin run --offline -q -- \
    fork-bench F --quick --json "$full_json" >/dev/null
cargo run --release -p vic-bench --bin run --offline -q -- \
    fork-bench F --quick --checkpoint-at 20000 --checkpoint "$cp_json" >/dev/null
grep -q '"engine_version":3' "$cp_json" || { echo "checkpoint missing version"; exit 1; }
cargo run --release -p vic-bench --bin run --offline -q -- \
    --restore "$cp_json" --json "$resumed_json" >/dev/null
strip_wall() { sed 's/"wall_seconds":[0-9.e+-]*//' "$1"; }
[ "$(strip_wall "$full_json")" = "$(strip_wall "$resumed_json")" ] \
    || { echo "restored run diverged from the uninterrupted run"; exit 1; }
rm -f "$cp_json" "$full_json" "$resumed_json"
grep -q '^{"engine_version":3,"spec":' BENCH_checkpoint.json \
    || { echo "checkpoint fixture schema drifted"; exit 1; }
cargo run --release -p vic-bench --bin run --offline -q -- \
    --restore BENCH_checkpoint.json >/dev/null

echo "=== sampling smoke (--calibrate / --check BENCH_sample.json) ==="
# Interval-sampled measurement: a fresh calibration must reproduce the
# full-run metrics within the 5% bound (the calibrate mode exits 1 if
# any cell exceeds it), and the committed fixture must still validate —
# the checker recomputes every per-metric relative error from the raw
# estimate/actual pairs, so a stale or hand-edited document fails. The
# committed speedups must hold the >= 5x claim; the fresh run's speedup
# is not gated (CI machines vary). After an intentional engine change,
# regenerate with: cargo run --release -p vic-bench --bin sample -- --calibrate
sample_json="$(mktemp)"
cargo run --release -p vic-bench --bin sample --offline -q -- \
    --calibrate --json "$sample_json" >/dev/null
rm -f "$sample_json"
cargo run --release -p vic-bench --bin sample --offline -q -- \
    --check BENCH_sample.json >/dev/null
grep -q '^{"engine_version":3,"bound_pct":5,' BENCH_sample.json \
    || { echo "sample fixture schema drifted"; exit 1; }
awk 'BEGIN{RS=","} /"speedup":/ {split($0,a,":"); if (a[2]+0 < 5) exit 1}' BENCH_sample.json \
    || { echo "committed sampling speedup fell below 5x"; exit 1; }

echo "=== profile baseline check (BENCH_baseline.json) ==="
# Re-runs the quick Table-4 + Table-5 grids under the cycle-cost
# profiler and diffs against the committed baseline; fails on any run
# >5% slower or on lost coverage. After an intentional cost change,
# refresh with: cargo run --release -p vic-bench --bin profile -- baseline
cargo run --release -p vic-bench --bin profile --offline -q -- --check-baseline

echo "=== serve smoke (cold/warm result cache, BENCH_serve.json) ==="
# The experiment service: start a real server on an ephemeral port with a
# fresh store, run the cold/warm cache benchmark (cold submit runs all 23
# quick Table-4+5 specs; warm submits must be all cache hits AND
# byte-identical AND >= 10x faster — `client check` asserts all three),
# confirm the metrics counters saw the hits and that serving a hit is
# faster than running a miss, then shut down gracefully. After an
# intentional engine change, regenerate the committed fixture with:
#   serve --store <fresh-dir> --port <p> &  client bench --port <p>
serve_store="$(mktemp -d)"; serve_log="$(mktemp)"; serve_bench="$(mktemp)"
cargo run --release -p vic-serve --bin serve --offline -q -- \
    --store "$serve_store" --port 0 > "$serve_log" &
serve_pid=$!
i=0
while ! grep -q 'listening on' "$serve_log"; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "serve never came up"; kill "$serve_pid" 2>/dev/null || true; exit 1; }
    sleep 0.1
done
serve_port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$serve_log" | head -1)"
cargo run --release -p vic-serve --bin client --offline -q -- \
    bench --reps 3 --json "$serve_bench" --port "$serve_port" >/dev/null
cargo run --release -p vic-serve --bin client --offline -q -- \
    check "$serve_bench" >/dev/null
serve_metrics="$(mktemp)"
cargo run --release -p vic-serve --bin client --offline -q -- \
    metrics --port "$serve_port" > "$serve_metrics"
awk '/^cache_hits_/ {hits += $2} END {exit (hits >= 1) ? 0 : 1}' "$serve_metrics" \
    || { echo "serve metrics show no cache hits"; exit 1; }
awk '/^hit_serve_ns_mean/ {hit = $2} /^miss_run_ns_mean/ {miss = $2}
     END {exit (hit > 0 && miss > 0 && hit < miss) ? 0 : 1}' "$serve_metrics" \
    || { echo "cache hit path is not faster than the miss (run) path"; exit 1; }
cargo run --release -p vic-serve --bin client --offline -q -- \
    shutdown --port "$serve_port" >/dev/null
i=0
while kill -0 "$serve_pid" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "serve did not stop within 10s of shutdown"; kill "$serve_pid"; exit 1; }
    sleep 0.1
done
wait "$serve_pid" || { echo "serve exited nonzero"; exit 1; }
rm -rf "$serve_store"; rm -f "$serve_log" "$serve_bench" "$serve_metrics"
# The committed fixture must still hold its claims (schema, recomputed
# speedup, the >= 10x floor).
cargo run --release -p vic-serve --bin client --offline -q -- \
    check BENCH_serve.json >/dev/null
grep -q '^{"engine_version":3,"grid":"table45",' BENCH_serve.json \
    || { echo "serve fixture schema drifted"; exit 1; }

echo "CI OK"

#!/usr/bin/env bash
# Local CI gate: build, tests, lints, and the release-only gate tests.
#
# Everything here runs fully offline (dependencies are vendored); a clean
# exit means the tree is in a committable state. Timing comparisons
# against a parent commit live in benchmark/ (see BENCHMARK.json), not
# here.
#
# `ci.sh --smoke` runs only the fast subset — release build, the serial
# kernel's `world::` tests (event order, HELLO rounds, reset equivalence)
# and the imobif-bench gate tests in release mode, and the spans and
# scenario smokes — and targets a total wall time under ~60s on a warm
# build cache.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
    SMOKE=1
fi

# First-party packages; vendor/ crates are workspace members but keep
# their upstream formatting, so fmt is scoped to -p rather than --all.
FIRST_PARTY=(-p imobif-geom -p imobif-energy -p imobif -p imobif-netsim
             -p imobif-obs -p imobif-experiments -p imobif-bench -p imobif-repro)

if [[ "$SMOKE" == "0" ]]; then
    echo "==> cargo fmt --check (first-party packages)"
    cargo fmt --check "${FIRST_PARTY[@]}"
fi

echo "==> cargo build --release"
cargo build --release --workspace

if [[ "$SMOKE" == "0" ]]; then
    echo "==> cargo test"
    cargo test --workspace -q

    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc (no-deps, warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
else
    echo "==> serial kernel tests (release)"
    cargo test --release -q -p imobif-netsim world::
fi

echo "==> imobif-bench gate tests (release, ignored timing gates included)"
# crates/bench/tests/, one test at a time so no gate times another:
#   allocs.rs — one sequential test, the counting allocator is global:
#   - 0 heap allocations per delivered packet in a warmed fig6 instance
#   - 0 allocation growth in a warmed hello_dense world
#   - arena-backed replicates after the first allocate < 813 (a fresh
#     world's per-instance figure)
#   - 0 allocations per warmed sharded epoch, spans disabled and enabled
#   - fig6 spec parse + compile allocate equally at 8 and 24 flows
#   span_determinism.rs — pins, no re-pin allowed:
#   - sweep trace/summary FNVs at 1/2/4/8/16 shards, with spans on pooled
#     workers, and on dense epochs; delta-synced replica == ground truth
#   - fig6 CSV FNV with the registry disabled and enabled, at 1 and 4
#     runner workers
#   - thread-scaling trace FNV at 1, 2 and 4 workers
#   release_gates.rs — #[ignore]d, paired in-process ratios, one retry:
#   - disabled metrics and disabled spans each within 1% (score >= 0.99)
#   - 16-shard serial tax on the sweep workload <= 1.10x
#   - the 100k-node sharded arena builds and delivers packets
cargo test --release -q -p imobif-bench -- --include-ignored --test-threads=1

echo "==> spans flame smoke (collapsed stacks + SVG + sharded manifest)"
spans_dir=$(mktemp -d)
trap 'rm -rf "$spans_dir"' EXIT
cargo run --release -q -p imobif-experiments --bin imobif -- \
    spans flame --nodes 300 --flows 4 --shards 4 --secs 5 --out "$spans_dir" >/dev/null
# Every folded line must parse as `scope;phase value`.
grep -Eq '^(shard[0-9]+|coord);[a-z_]+ [0-9]+$' "$spans_dir/spans.folded"
if grep -Evq '^(shard[0-9]+|coord);[a-z_]+ [0-9]+$' "$spans_dir/spans.folded"; then
    echo "spans.folded contains malformed lines" >&2
    exit 1
fi
grep -q '<svg' "$spans_dir/spans_flame.svg"
grep -q '"shard.epochs"' "$spans_dir/run_manifest.json"
grep -q '"spans_recorded"' "$spans_dir/run_manifest.json"
grep -q '^shard_epochs ' "$spans_dir/metrics.prom"
cargo run --release -q -p imobif-experiments --bin imobif -- \
    manifest-check "$spans_dir/run_manifest.json"

echo "==> scenario smoke (spec validation + spec-driven figure identity)"
# Every shipped spec must validate (parse + compile + per-run config
# checks), and a spec-driven fig6 run must still produce the pinned
# pre-observability CSV bytes.
cargo run --release -q -p imobif-experiments --bin imobif -- \
    scenario validate examples/scenarios/*.toml
scenario_fnv=$(cargo run --release -q -p imobif-experiments --bin imobif -- \
    scenario run fig6 --flows 8 --seed 2025 --fnv | grep '^fnv fig6_ratios.csv')
echo "    $scenario_fnv"
[[ "$scenario_fnv" == *"0x67fde5856d8296c6"* ]] || {
    echo "spec-driven fig6 CSV drifted from the pinned FNV" >&2
    exit 1
}

if [[ "$SMOKE" == "1" ]]; then
    echo "==> ci OK (smoke subset)"
    exit 0
fi

echo "==> observability smoke (manifest + metrics artifacts, trace tooling)"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir" "$spans_dir"' EXIT
# A small figure run with metrics on must emit a manifest that validates
# and carries nonzero kernel readings.
cargo run --release -q -p imobif-experiments --bin imobif -- \
    fig7 --flows 2 --metrics --prom --out "$obs_dir" >/dev/null
cargo run --release -q -p imobif-experiments --bin imobif -- \
    manifest-check "$obs_dir/run_manifest.json"
grep -q '"queue.pushes"' "$obs_dir/run_manifest.json"
grep -q '"imobif.decision_cache' "$obs_dir/run_manifest.json"
grep -q '"energy.data_joules"' "$obs_dir/run_manifest.json"
grep -q '^queue_pushes ' "$obs_dir/metrics.prom"
# Trace tooling end to end: record a case to JSONL, then summarize it.
cargo run --release -q -p imobif-experiments --bin imobif -- \
    trace record --out "$obs_dir/trace.jsonl" --seed 7 --index 0 2>/dev/null
cargo run --release -q -p imobif-experiments --bin imobif -- \
    trace summary "$obs_dir/trace.jsonl" | grep -q '| sent |'

echo "==> ci OK"

#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build + test suite.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the release build and perf gates
#   scripts/check.sh --ci      # everything + example builds, doc lints,
#                              # bench smoke runs, fleet smoke, bench
#                              # regression gate
#
# Flags combine (e.g. `--fast --ci` runs the CI extras without the
# release build); unknown flags are rejected. Run from anywhere; the
# script cd's to the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/check.sh [--fast] [--ci]" >&2
    echo "  --fast  skip the release build and perf gates" >&2
    echo "  --ci    add example builds, doc lints, bench smoke runs," >&2
    echo "          the fleet smoke and the bench regression gate" >&2
}

FAST=0
CI=0
for arg in "$@"; do
    case "$arg" in
    --fast) FAST=1 ;;
    --ci) CI=1 ;;
    -h | --help)
        usage
        exit 0
        ;;
    *)
        echo "check.sh: unknown flag '$arg'" >&2
        usage
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$FAST" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

if [[ "$CI" -eq 1 ]]; then
    echo "==> cargo build --release --examples"
    cargo build --release --examples
fi

# --workspace matters: a bare `cargo test` only runs the root facade
# package, silently skipping every member crate's gate suite.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

if [[ "$CI" -eq 1 ]]; then
    # The shims sit outside the workspace (`exclude`), so --workspace
    # never reaches their tests.
    echo "==> shim tests (scheduler rules, two-stage sampling, JSON number bytes)"
    cargo test -q -p rayon -p rand_distr -p serde_json

    # One CPU is the pool's no-worker path: every FNV pin must hold
    # there exactly as it just did on all cores.
    echo "==> FNV pins on one thread (taskset -c 0)"
    taskset -c 0 cargo test -q -p middle-core --test hotpath_equiv --test population_plane \
        --test timeline_plane --test algo_zoo

    echo "==> cargo doc --workspace --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

if [[ "$FAST" -eq 0 ]]; then
    echo "==> telemetry overhead gate (disabled recorder must stay a no-op)"
    cargo run -q -p middle-bench --release --bin telemetry_overhead
fi

if [[ "$CI" -eq 1 ]]; then
    echo "==> sweep engine smoke run (4 scenarios, writes BENCH_sweep.json)"
    cargo run -q -p middle-bench --release --bin sweep -- --smoke

    echo "==> compression smoke run (lossless identity + 4x uplink gate, writes BENCH_compress.json)"
    cargo run -q -p middle-bench --release --bin compress_sweep -- --smoke

    echo "==> train-kernel smoke run (speedup regression gate, writes BENCH_train.json)"
    cargo run -q -p middle-bench --release --bin train_kernels -- --smoke

    echo "==> population-scale smoke run (dense/lazy pair, writes BENCH_scale_smoke.json)"
    cargo run -q -p middle-bench --release --bin scale_sweep -- --smoke

    echo "==> algorithm-zoo smoke run (zoo x {clean,hostile}, writes BENCH_algos.json)"
    cargo run -q -p middle-bench --release --bin algos_sweep -- --smoke

    # Unlike the other bench baselines, the committed BENCH_async.json
    # is a *full* run (the dominance gate needs the real horizon), so
    # the smoke run writes to target/ instead of overwriting it.
    echo "==> async-timeline smoke run (lockstep vs event-driven Pareto, writes target/BENCH_async_smoke.json)"
    cargo run -q -p middle-bench --release --bin async_sweep -- target/BENCH_async_smoke.json --smoke

    echo "==> fleet smoke (3 workers, SIGKILL one, bitwise merge vs serial)"
    scripts/fleet_smoke.sh

    echo "==> bench regression gate (fresh smoke runs vs committed baselines)"
    scripts/bench_compare.sh
fi

echo "All checks passed."

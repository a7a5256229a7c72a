#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build + test suite.
# Every mode runs the workspace tests in debug and then the tensor and
# nn suites again in release: the convolution's vector tiles exist only
# in optimised builds (debug never vectorises, and `debug_assert`s vanish
# in release), so only there do the kernels that ship meet their oracles.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the release build of the workspace
#   scripts/check.sh --ci      # everything + example builds, shim tests,
#                              # one-thread FNV pins, doc lints, the
#                              # benchmark's own suite, every `sweeps`
#                              # preset (BENCH_*.json and results/
#                              # regenerated and byte-compared; the eight
#                              # figure presets take 13 min on two cores,
#                              # 7 + 7 + 0 + 0 + 63 + 174 + 330 + 204 s)
#                              # and the fleet smoke
#
# Flags combine (e.g. `--fast --ci` runs the CI extras without the
# release build); unknown flags are rejected. Run from anywhere; the
# script cd's to the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/check.sh [--fast] [--ci]" >&2
    echo "  --fast  skip the release build of the workspace" >&2
    echo "  --ci    add example builds, shim tests, one-thread FNV pins," >&2
    echo "          doc lints, the perf suite, the sweep artefact gates" >&2
    echo "          (BENCH_*.json, then results/: 13 min on two cores) and the" >&2
    echo "          fleet smoke" >&2
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

# The kernels as they ship: optimised, vectorised, `debug_assert`s gone.
echo "==> cargo test --release -q -p middle-tensor -p middle-nn"
cargo test --release -q -p middle-tensor -p middle-nn

if [[ "$CI" -eq 1 ]]; then
    # The shims sit outside the workspace (`exclude`), so --workspace
    # never reaches their tests.
    echo "==> shim tests (scheduler rules, two-stage sampling, Value round trips, JSON bytes)"
    cargo test -q -p rayon -p rand_distr -p serde -p serde_json

    # One CPU is the pool's no-worker path: every FNV pin must hold
    # there exactly as it just did on all cores.
    echo "==> FNV pins on one thread (taskset -c 0)"
    taskset -c 0 cargo test -q -p middle-core --test hotpath_equiv --test population_plane \
        --test timeline_plane --test algo_zoo

    echo "==> cargo doc --workspace --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

if [[ "$CI" -eq 1 ]]; then
    # perf/ is a package of its own: neither --workspace nor the root
    # clippy reaches it.
    echo "==> cargo test --manifest-path perf/Cargo.toml (the benchmark's own suite)"
    cargo test -q --manifest-path perf/Cargo.toml

    # Every scientific result is a pure function of its config, so the
    # gate is exact: each preset asserts its claims (lossless == off and
    # a >= 4x uplink cut, async dominance under hostile stragglers, every
    # zoo cell present), then any byte of drift in an artefact fails.
    echo "==> scientific sweeps (faults, algos, compress, async): regenerate and byte-compare"
    for preset in faults algos compress async; do
        cargo run -q -p middle-bench --release --bin sweeps -- "$preset"
    done
    git diff --exit-code -- BENCH_faults.json BENCH_algos.json BENCH_compress.json BENCH_async.json

    # The paper's figures are what this commit computes: each preset
    # asserts the claims that hold and records the ones that do not with
    # their measured values, in the tables compared here.
    echo "==> figure presets (fig1-3, fig6-8, ablation, theorem1): regenerate results/ and byte-compare"
    for preset in fig1 fig2 fig3 theorem1 ablation fig6 fig7 fig8; do
        cargo run -q -p middle-bench --release --bin sweeps -- "$preset"
    done
    git diff --exit-code -- results/

    echo "==> fleet smoke (3 workers, SIGKILL one, bitwise merge vs serial)"
    scripts/fleet_smoke.sh
fi

echo "All checks passed."

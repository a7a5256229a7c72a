#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 build + test suite.
# Every mode checks that the benchmark package under perf/ still builds
# against the workspace's API, runs the workspace tests in debug and then
# the tensor and nn suites again in release: the convolution's vector
# tiles exist only in optimised builds (debug never vectorises, and
# `debug_assert`s vanish in release), so only there do the kernels that
# ship meet their oracles.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --fast    # skip the release build of the workspace
#   scripts/check.sh --ci      # everything + example builds, a run of
#                              # trace_tooling (1 s on two cores), shim
#                              # tests, Adam's reciprocal lemma over every
#                              # f32 (25 s), one-thread FNV pins, doc
#                              # lints, the benchmark's own suite, every
#                              # experiment preset through `middle-sweepd
#                              # run` (results/ regenerated and
#                              # byte-compared; 17 min on two cores, the
#                              # figure presets 16 of them) and the fleet
#                              # smoke
#
# Flags combine (e.g. `--fast --ci` runs the CI extras without the
# release build); unknown flags are rejected. Run from anywhere; the
# script cd's to the repo root.

set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/check.sh [--fast] [--ci]" >&2
    echo "  --fast  skip the release build of the workspace" >&2
    echo "  --ci    add example builds and an example run, shim tests, the" >&2
    echo "          exhaustive reciprocal lemma, one-thread FNV pins, doc lints," >&2
    echo "          the perf suite, the preset gate (every preset regenerates" >&2
    echo "          results/: 17 min on two cores) and the fleet smoke" >&2
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
# The shims are outside the workspace (its `exclude`), so `cargo fmt`
# never reaches them; check their files one by one.
git ls-files -z 'crates/shims/**/*.rs' | xargs -0 rustfmt --check --edition 2021

# A doc that names a file that is gone misleads its next reader. Every
# backticked path-like token (first word, `:line` suffix dropped) must
# exist or be a build output `.gitignore` lists; tokens holding a glob,
# a brace list or a `<placeholder>` are patterns, not paths. The docs
# read are the five below and every `//!` and `///` comment of the
# code, so a file a doc comment names cannot be deleted silently.
# perf/README.md stays out: it names three paths that are gone
# (perf/.cargo/config.toml, perf/.gitignore, src/metrics.rs), and only a
# change to the benchmark may edit perf/.
echo "==> stale paths in README.md, DESIGN.md, ROADMAP.md, EXPERIMENTS.md, the verify skill and doc comments"
stale=$({
    grep -oh '`[^`]*`' README.md DESIGN.md ROADMAP.md EXPERIMENTS.md .claude/skills/verify/SKILL.md
    git grep -h -E '^\s*//[/!]' -- 'crates/**.rs' 'src/**.rs' 'tests/**.rs' 'examples/**.rs' |
        grep -o '`[^`]*`' || true
} |
    while IFS= read -r token; do
        token=${token//\`/}
        [[ "$token" == *[*{\<]* ]] && continue
        path=${token%% *}
        path=${path%%:*}
        case "$path" in
        crates/* | perf/* | scripts/* | results/* | examples/* | tests/* | src/* | .github/* | .claude/* | BENCH_*.json)
            [[ -e "$path" ]] || git check-ignore -q "$path" || echo "$path"
            ;;
        esac
    done | sort -u)
if [[ -n "$stale" ]]; then
    echo "stale paths named in the docs:" >&2
    echo "$stale" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# perf/ is a package of its own (its own lock file and target
# directory) whose probes call the tensor, nn and core APIs directly, so
# an API change that breaks it must fail every mode, not only --ci.
echo "==> cargo check --manifest-path perf/Cargo.toml (the benchmark builds)"
cargo check --offline --locked --manifest-path perf/Cargo.toml

if [[ "$FAST" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

if [[ "$CI" -eq 1 ]]; then
    echo "==> cargo build --release --examples"
    cargo build --release --examples

    # trace_tooling runs end to end: it asserts the ONE-report round
    # trip and trains on the imported trace.
    echo "==> example trace_tooling"
    cargo run -q --release --example trace_tooling
fi

# --workspace matters: a bare `cargo test` only runs the root facade
# package, silently skipping every member crate's gate suite. Without
# --no-fail-fast the first failing test binary hides every suite after it.
echo "==> cargo test --workspace -q --no-fail-fast"
cargo test --workspace -q --no-fail-fast

# The kernels as they ship: optimised, vectorised, `debug_assert`s gone.
echo "==> cargo test --release -q -p middle-tensor -p middle-nn"
cargo test --release -q -p middle-tensor -p middle-nn

if [[ "$CI" -eq 1 ]]; then
    # The shims sit outside the workspace (`exclude`), so --workspace
    # never reaches their tests.
    echo "==> shim tests (scheduler rules, two-stage sampling, Value round trips, JSON bytes)"
    cargo test -q -p rayon -p rand_distr -p serde -p serde_json

    # Adam's bias corrections multiply by an f64 reciprocal instead of
    # dividing; the lemma that this rounds as the division is sampled in
    # every mode and checked here over all 2^32 inputs for the corrections
    # of the first three steps (25 s in release on two cores).
    echo "==> Adam's reciprocal lemma over every f32 (release, ignored test)"
    cargo test --release -q -p middle-nn --lib -- --ignored \
        reciprocal_multiply_rounds_as_the_division_on_every_f32

    # One CPU is the pool's no-worker path: every FNV pin and every
    # kernel pair of the harness must hold there exactly as they just did
    # on all cores — the compression batch's inline stages among them —
    # and the phase timers must still cover the step with the participant
    # region running inline.
    echo "==> FNV pins, kernel pairs and phase coverage on one thread (taskset -c 0)"
    taskset -c 0 cargo test -q -p middle-core --lib --test matrix --test hotpath_equiv \
        --test population_plane --test timeline_plane --test algo_zoo --test compress_plane \
        --test fault_plane --test telemetry_plane

    echo "==> cargo doc --workspace --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

if [[ "$CI" -eq 1 ]]; then
    # perf/ is a package of its own: neither --workspace nor the root
    # clippy reaches it.
    echo "==> cargo test --manifest-path perf/Cargo.toml (the benchmark's own suite)"
    cargo test -q --manifest-path perf/Cargo.toml

    # Every result is a pure function of its config, so the gate is
    # exact. Each preset asserts its claims before it writes a table
    # (lossless == off and a >= 4x uplink cut, async dominance under
    # hostile stragglers, every zoo cell present, the figures' REPRODUCED
    # lines) and records the paper's claims that do not hold with their
    # measured values; a table over one report ends with the report's
    # FNV-1a, so any byte of any record moves a committed line. A table
    # that differs from the commit, or that no commit holds, fails.
    presets=$(cargo run -q -p middle-sweepd --release -- help | sed -n 's/^ *Presets: //p')
    [[ -n "$presets" ]] || { echo "middle-sweepd's usage names no presets" >&2; exit 1; }
    echo "==> presets ($presets): regenerate results/ and byte-compare"
    for preset in $presets; do
        cargo run -q -p middle-sweepd --release -- run "$preset"
    done
    git diff --exit-code -- results/
    untracked=$(git status --porcelain -- results/)
    if [[ -n "$untracked" ]]; then
        echo "tables in results/ that no commit holds:" >&2
        echo "$untracked" >&2
        exit 1
    fi

    echo "==> fleet smoke (3 workers, SIGKILL one, bitwise merge vs serial)"
    scripts/fleet_smoke.sh
fi

echo "All checks passed."

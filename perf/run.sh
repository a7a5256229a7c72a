#!/usr/bin/env bash
# Builds `perf` from source (offline, against the committed lock file)
# and runs it. With arguments they go to `perf` as they are — the
# benchmark driver calls
#   bash perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# With none it is the whole benchmark: `perf run --seed 2023`, which
# prints every metric of every workload, runs the checks and writes
# perf/out/results-seed2023.json and one span trace per workload.
set -euo pipefail
cd "$(dirname "$0")/.."
# The root workspace's target directory unless the caller chose one, so
# an existing release build of the crates is reused.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked --quiet --manifest-path perf/Cargo.toml >&2
if [ $# -eq 0 ]; then
    set -- run --seed 2023
fi
exec "$CARGO_TARGET_DIR/release/perf" "$@"

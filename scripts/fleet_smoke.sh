#!/usr/bin/env bash
# Fleet-smoke gate: the multi-process acceptance check for the
# `middle-sweepd` lease protocol.
#
# Runs the `smoke` preset once in one process (the oracle), then with
# three worker processes sharing the lease ledger (`run smoke --spawn
# 3`), SIGKILLs one worker mid-sweep, lets the survivors reclaim its
# expired lease while the coordinator merges the worker streams, and
# asserts the two runs' tables are byte-identical. The table ends with
# the FNV-1a of the report's deterministic JSON, so equal tables are
# equal reports.
#
#   scripts/fleet_smoke.sh
#
# Run from anywhere; the script cd's to the repo root. Builds
# middle-sweepd (release) first; cargo leaves a current binary alone,
# and a stale one (say, from a restored build cache) is never tested.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> building middle-sweepd (release)"
cargo build --release -p middle-sweepd
BIN=target/release/middle-sweepd

WORK="$(mktemp -d "${TMPDIR:-/tmp}/middle_fleet_smoke.XXXXXX")"
cleanup() {
    # Don't leave the run or its workers behind on any exit path.
    if [[ -n "${RUN_PID:-}" ]]; then
        pkill -9 -P "$RUN_PID" 2>/dev/null || true
        kill -9 "$RUN_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "==> oracle: run smoke in one process"
"$BIN" run smoke --out "$WORK/oracle" >/dev/null

echo "==> run smoke --spawn 3: 3 workers over the shared ledger"
"$BIN" run smoke --spawn 3 --dir "$WORK/ledger" --lease-ms 2000 --max-wall-ms 300000 \
    --out "$WORK/fleet" >/dev/null &
RUN_PID=$!

# Wait until the fleet has made real progress (so the kill lands
# mid-sweep, not before the first lease), then SIGKILL one worker.
completed=0
for _ in $(seq 1 600); do
    completed="$("$BIN" status --dir "$WORK/ledger" 2>/dev/null | head -n1 | cut -d/ -f1 || echo 0)"
    [[ "${completed:-0}" =~ ^[0-9]+$ ]] || completed=0
    if [[ "$completed" -ge 2 ]]; then
        break
    fi
    sleep 0.1
done
if [[ "$completed" -lt 2 ]]; then
    echo "fleet_smoke: fleet made no progress (completed=$completed)" >&2
    exit 1
fi
read -r VICTIM _SURVIVORS <<<"$(pgrep -P "$RUN_PID" | tr '\n' ' ')"
echo "==> SIGKILL one worker (pid ${VICTIM:-none}) at $completed completed"
if [[ -z "${VICTIM:-}" ]] || ! kill -9 "$VICTIM" 2>/dev/null; then
    echo "fleet_smoke: worker exited before the kill — grid too small to land a mid-run SIGKILL" >&2
    exit 1
fi

echo "==> the coordinator merges (the survivors reclaim the dead worker's lease)"
if ! wait "$RUN_PID"; then
    echo "fleet_smoke: the fleet run failed" >&2
    exit 1
fi
RUN_PID=""

echo "==> bitwise compare: fleet table vs the in-process oracle's"
if ! diff -r "$WORK/oracle" "$WORK/fleet"; then
    echo "fleet_smoke: merged fleet table is NOT byte-identical to the in-process run's" >&2
    exit 1
fi
echo "fleet_smoke: merged table is byte-identical to the in-process oracle's."

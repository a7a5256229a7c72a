#!/usr/bin/env bash
# Parent-vs-change measurement by choosing-metrics section 8: alternating
# pairs of untraced `perf` runs, each side's median and quartiles per
# end-to-end metric, and in how many pairs the change read higher or
# lower, with the exact two-sided sign-test p-value of that split (ties
# dropped; at 5 pairs even 5 / 0 reads p = 0.0625). Which direction is
# better is in BENCHMARK.json; this script does not know, and it has no
# tolerance: it fails only on what must be
# exactly equal on both sides (the trajectory fingerprint, `sim_wall_s`,
# `uplink_mb`) and on failed operations.
#
#   scripts/perf_pairs.sh <parent-ref> <workload[,workload...]|all> [pairs=10] [seed=2023]
#
# `all` is every workload the change's `perf` declares. Workloads run
# one after another, each with its own pairs and its own table, so
# "the claimed workload improved, the others did not move" is one
# command; the exit status is non-zero if any table broke the rule
# above.
#
# The parent is exported (`git archive`) under $TMPDIR, so nothing is
# left in `.git`; the change is the working tree. Each side is built by
# its own `perf/run.sh` into its own tree's `target/`. Every run's
# metric lines are printed as they arrive, each workload's table after
# its last pair; `tee` the output to keep it. Run from anywhere.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/perf_pairs.sh <parent-ref> <workload[,workload...]|all> [pairs=10] [seed=2023]" >&2
    exit 2
fi
REF=$1
WORKLOADS=$2
PAIRS=${3:-10}
SEED=${4:-2023}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/middle_perf_pairs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
mkdir "$WORK/parent"
git archive "$REF" | tar -x -C "$WORK/parent"

# run.sh builds before it runs; `manifest` is the cheapest thing to ask
# for, so no measured run has a build in front of it.
unset CARGO_TARGET_DIR
echo "==> building parent ($REF) and change" >&2
bash "$WORK/parent/perf/run.sh" manifest >/dev/null
bash perf/run.sh manifest >"$WORK/manifest.json"
if [[ "$WORKLOADS" == all ]]; then
    # The `workloads` array is the manifest's first; its entries are the
    # only ones whose `name` sits on a line of its own before a `why`.
    WORKLOADS=$(sed -n '/"workloads": \[/,/^  \]/p' "$WORK/manifest.json" |
        sed -n 's/^ *"name": "\([a-z_0-9]*\)",$/\1/p' | paste -sd, -)
fi

# One measured run of `side`; its lines go to stdout as
# `<pair> <side> <line>`.
measure() {
    local pair=$1 side=$2 tree=.
    [[ "$side" == parent ]] && tree="$WORK/parent"
    echo "==> $WORKLOAD pair $pair/$PAIRS: $side" >&2
    bash "$tree/perf/run.sh" --workload "$WORKLOAD" --seed "$SEED" --seconds 20 --trace 0 |
        sed "s/^/$pair $side /"
}

# The table of one workload's runs. `name value unit` lines are metrics;
# `fingerprint` and `ops` lines carry what must be exact.
table() {
    awk '
function quartile(side, name, q,    n, i, j, v, tmp, pos, lo) {
    n = 0
    for (i = 1; i <= runs[side]; i++) v[++n] = value[side, name, i] + 0
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && v[j - 1] > v[j]; j--) { tmp = v[j]; v[j] = v[j - 1]; v[j - 1] = tmp }
    pos = 1 + (n - 1) * q
    lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
# Exact two-sided sign test: the chance, were either side equally likely
# to read higher, of a split among the untied pairs at least this uneven.
function sign_p(a, b,    n, k, i, term, tail) {
    n = a + b
    k = a < b ? a : b
    term = 0.5 ^ n
    for (i = 0; i <= k; i++) { tail += term; term = term * (n - i) / (i + 1) }
    return 2 * tail > 1 ? 1 : 2 * tail
}
function spread(side, name) {
    return sprintf("%.6g / %.6g / %.6g", quartile(side, name, 0.25), quartile(side, name, 0.5), quartile(side, name, 0.75))
}
{ pair = $1; side = $2 }
NF == 5 && $4 ~ /^-?[0-9]/ {
    if (!(($3) in unit)) order[++metrics] = $3
    unit[$3] = $5
    value[side, $3, pair] = $4
    if (pair > runs[side]) runs[side] = pair
    if ($3 == "sim_wall_s" || $3 == "uplink_mb") exact[$3 " " $4] = 1
}
$3 == "fingerprint" { exact["fingerprint " $6] = 1 }
$3 == "ops" && $7 != 0 { failed += $7 }
END {
    if (runs["parent"] == 0 || runs["parent"] != runs["change"]) {
        print "perf_pairs: a side printed no metrics" > "/dev/stderr"
        exit 1
    }
    printf "\n%-26s %-6s %-34s %-34s %-30s %s\n", "metric", "unit", "parent q1 / median / q3", "change q1 / median / q3", "change higher / lower / tied", "sign-test p"
    for (m = 1; m <= metrics; m++) {
        name = order[m]
        higher = lower = tied = 0
        for (i = 1; i <= runs["parent"]; i++) {
            p = value["parent", name, i] + 0
            c = value["change", name, i] + 0
            if (c > p) higher++; else if (c < p) lower++; else tied++
        }
        printf "%-26s %-6s %-34s %-34s %-30s %.4g\n", name, unit[name], spread("parent", name), spread("change", name), higher " / " lower " / " tied, sign_p(higher, lower)
    }
    n = 0
    for (e in exact) n++
    bad = 0
    if (n != 3) {
        print "perf_pairs: fingerprint, sim_wall_s or uplink_mb differ between runs:" > "/dev/stderr"
        for (e in exact) print "  " e > "/dev/stderr"
        bad = 1
    }
    if (failed > 0) {
        print "perf_pairs: " failed " failed operations" > "/dev/stderr"
        bad = 1
    }
    exit bad
}' "$1"
}

status=0
for WORKLOAD in ${WORKLOADS//,/ }; do
    runs="$WORK/runs.$WORKLOAD.txt"
    for pair in $(seq 1 "$PAIRS"); do
        if ((pair % 2)); then
            measure "$pair" parent
            measure "$pair" change
        else
            measure "$pair" change
            measure "$pair" parent
        fi
    done | tee "$runs" | grep --line-buffered -E '^[0-9]+ (parent|change) ([a-z_0-9.]+ [-0-9.e+]+ [^ ]+|fingerprint .*|ops .*)$'
    printf '\n== %s: parent %s vs change, seed %s, %s pairs\n' "$WORKLOAD" "$REF" "$SEED" "$PAIRS"
    table "$runs" || status=1
done
exit $status

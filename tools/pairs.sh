#!/bin/sh
# Compares two benchmark worker binaries (`pfbench`, built from
# benchmark/ in two checkouts) by alternating pairs: pair k runs each
# worker once on WORKLOAD with SEED, both pinned to the same CPU with
# taskset, the parent first on odd k and the change first on even k.
# Prints, for run_s, setup_s and peak_rss_kb, each side's median and
# quartiles, the change against the parent's median and the pairs the
# change won (lower wins), then each side's digests and failed checks.
# Builds nothing and edits nothing.
#
# Usage: tools/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD N SEED
set -eu
if [ $# -ne 5 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD N SEED" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 n=$4 seed=$5
command -v taskset >/dev/null || { echo "$0: taskset not found" >&2; exit 2; }
cpu=$(python3 -c 'import os; print(max(os.sched_getaffinity(0)))')
reps=$(mktemp)
trap 'rm -f "$reps"' EXIT
k=1
while [ "$k" -le "$n" ]; do
    if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        line=$(taskset -c "$cpu" "$bin" --workload "$workload" --seed "$seed" | tail -n 1) || line=
        [ -n "$line" ] || line='{}'
        printf '%s %s %s\n' "$k" "$side" "$line" >>"$reps"
    done
    k=$((k + 1))
done
python3 - "$reps" "$workload" "$seed" "$cpu" <<'EOF'
import json
import statistics
import sys

path, workload, seed, cpu = sys.argv[1:]
runs = {"parent": {}, "change": {}}
for row in open(path):
    k, side, line = row.split(" ", 2)
    try:
        runs[side][int(k)] = json.loads(line)
    except ValueError:
        runs[side][int(k)] = {}
pairs = sorted(runs["parent"])
ok = [k for k in pairs if all("run_s" in runs[s][k] for s in runs)]
print(f"# {workload}, seed {seed}, {len(pairs)} alternating pairs pinned to CPU {cpu}; "
      f"{len(ok)} with both sides reporting")
if not ok:
    sys.exit(1)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


print(f"{'metric':<12}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}"
      f"{'change':>10}{'wins':>8}")
for metric in ("run_s", "setup_s", "peak_rss_kb"):
    p = [runs["parent"][k][metric] for k in ok]
    c = [runs["change"][k][metric] for k in ok]
    (pq1, pq3), (cq1, cq3) = quartiles(p), quartiles(c)
    pm, cm = statistics.median(p), statistics.median(c)
    wins = sum(b < a for a, b in zip(p, c))
    fmt = "{:.4f}" if metric.endswith("_s") else "{:.0f}"
    side = lambda m, lo, hi: f"{fmt.format(m)} [{fmt.format(lo)}, {fmt.format(hi)}]"
    print(f"{metric:<12}{side(pm, pq1, pq3):>30}{side(cm, cq1, cq3):>30}"
          f"{(cm - pm) / pm:>+10.1%}{f'{wins}/{len(ok)}':>8}")
for s in runs:
    reps = runs[s].values()
    digests = sorted({r.get("digest", "none") for r in reps})
    failed = [c["name"] for r in reps for c in r.get("checks", []) if not c["ok"]]
    missing = sum("run_s" not in r for r in reps)
    print(f"{s}: digests {' '.join(digests)}; failed checks {len(failed)}"
          f"{' (' + ', '.join(sorted(set(failed))) + ')' if failed else ''}; "
          f"runs without a result {missing}")
EOF

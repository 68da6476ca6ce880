#!/usr/bin/env bash
# Run the benchmark on two checkouts in alternating pairs and tally the
# end-to-end metrics.
#
#   scripts/bench_pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD [PAIRS]
#
# Each checkout is a repository root (it holds perfbench/ and src/). Pair i,
# for i = 0 .. PAIRS-1 (default 10), runs
#     python3 perfbench/run.py --workload WORKLOAD --seed i
# once in each checkout, the parent first when i is even and the change first
# when i is odd. Each run prints one line as it ends. Then, for every
# end-to-end metric in the parent's BENCHMARK.json, the script prints the
# median and quartiles of each side (statistics.quantiles, inclusive method),
# the number of pairs in which the change is better (ties count for neither
# side), the median relative change and a verdict against the metric's
# bound (a share of the parent's median): "worse than bound" when the change's
# median is worse than the parent's by more than the bound; else "unresolved"
# when the parent's interquartile range is wider than the bound and not every
# change run beats every parent run; else "within bound". Next to it a gain
# verdict: "gain shown" when the change is better in at least nine tenths of
# the pairs and its median is better than the parent's by more than the
# parent's interquartile range, else "gain not shown". Then it prints each
# side's count of correct runs and its attempted and failed samples. A run
# that exits nonzero or prints no result counts as not correct, and its pair
# is not counted. Uses the Python standard library only.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD [PAIRS]" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "PAIRS must be a positive integer" >&2
    exit 2
fi

RESULTS="$(mktemp)"
trap 'rm -f "$RESULTS"' EXIT

# run SIDE CHECKOUT SEED: one benchmark run; appends "SIDE SEED JSON" to
# RESULTS, where JSON is the run's last output line (or null if it failed).
run() {
    local out status line
    status=0
    out="$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3")" || status=$?
    line="$(printf '%s\n' "$out" | tail -n 1)"
    if [ "$status" -ne 0 ] || ! python3 -c 'import json, sys; json.loads(sys.argv[1])["metrics"]' \
            "$line" 2>/dev/null; then
        line=null
    fi
    printf '%s %s %s\n' "$1" "$3" "$line" >> "$RESULTS"
    python3 - "$1" "$3" "$line" <<'PY'
import json, sys
side, seed, line = sys.argv[1:]
doc = json.loads(line)
if doc is None:
    print(f"seed {seed:>3} {side:6s} run failed")
else:
    cells = " ".join(f"{k}={v['value']!r}" for k, v in doc["metrics"].items())
    print(f"seed {seed:>3} {side:6s} {cells}")
PY
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
done

python3 - "$RESULTS" "$parent/BENCHMARK.json" "$workload" <<'PY'
import json, statistics, sys

results_path, benchmark_path, workload = sys.argv[1:]
runs = {"parent": {}, "change": {}}
for line in open(results_path):
    side, seed, doc = line.split(" ", 2)
    runs[side][int(seed)] = json.loads(doc)
seeds = sorted(runs["parent"])


def values(side, name):
    return {s: d["metrics"][name]["value"] for s, d in runs[side].items()
            if d is not None and d["metrics"].get(name, {}).get("value") is not None}


def spread(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3


print(f"\n{workload}: {len(seeds)} pairs; median [lower quartile - upper quartile]")
for metric in json.load(open(benchmark_path))["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    p, c = values("parent", name), values("change", name)
    if not p or not c:
        print(f"{name:12s} no values")
        continue
    both = [s for s in seeds if s in p and s in c]
    better = sum((c[s] < p[s]) if lower else (c[s] > p[s]) for s in both)
    ties = sum(c[s] == p[s] for s in both)
    (pm, p1, p3), (cm, c1, c3) = spread(list(p.values())), spread(list(c.values()))
    rel = (cm - pm) / pm if pm else float("nan")
    limit = metric["bound"] * abs(pm)
    beats_all = (max(c.values()) < min(p.values()) if lower
                 else min(c.values()) > max(p.values()))
    if (cm - pm if lower else pm - cm) > limit:
        verdict = "worse than bound"
    elif p3 - p1 > limit and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    gain = ("gain shown" if 10 * better >= 9 * len(seeds)
            and (pm - cm if lower else cm - pm) > p3 - p1 else "gain not shown")
    print(f"{name:12s} parent {pm!r} [{p1!r} - {p3!r}]")
    print(f"{'':12s} change {cm!r} [{c1!r} - {c3!r}]  {metric['unit']}, "
          f"{metric['better']} is better")
    print(f"{'':12s} change better in {better} of {len(seeds)} pairs ({ties} ties, "
          f"{len(seeds) - len(both)} without a value); median change {rel:+.2%}")
    print(f"{'':12s} {verdict} (bound {metric['bound']:g} of the parent's median); {gain}")
for side in ("parent", "change"):
    docs = list(runs[side].values())
    done = [d for d in docs if d is not None]
    print(f"{side}: {sum(d['correct'] for d in done)} of {len(docs)} runs correct; "
          f"samples attempted {sum(d['attempted'] for d in done)}, "
          f"failed {sum(d['failed'] for d in done)}")
PY

#!/usr/bin/env bash
# Check that two source trees write the same CLI outputs.
#
#   scripts/same_outputs.sh PARENT_SRC CHANGE_SRC
#
# Each argument is a directory that holds the hybridkernel package (a
# checkout's src/). For each tree the script runs a fixed list of CLI calls
# with PYTHONPATH set to that tree and BLAS on one thread, then compares the
# outputs of each call with diff -r, leaving out manifest.json (it records a
# timestamp and the output path). A call that fails on either side does not
# stop the run: it is reported as FAILED with each failing side's exit
# status, and the other calls are still compared. Prints one line per call
# and exits 1 if any call failed or differs. Under a call that differs it
# lists each differing file with the largest absolute and relative difference
# over its numeric cells (CSV cells split at ',' and ';', JSON leaves, string
# leaves split at ';') and the file's max-norm difference with the field that
# sets it, or says that the layout differs. A field is a CSV column or a JSON
# key path; its max-norm is its max |delta| over its largest |value| in either
# file (which a near-zero cell cannot inflate), and the file's is the largest
# over its fields. Integer JSON leaves (seeds, indices) are compared exactly and
# stay out of every scale; the line names each field whose text or integers
# differ.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT_SRC CHANGE_SRC" >&2
    exit 2
fi

CALLS=(
    "setting1-n2000 setting1 --n 2000 --seed 0"
    "setting2-n2000 setting2 --n 2000 --seed 0"
    "setting1-n2000-dense setting1 --n 2000 --lambda 1e-12"
    "setting1-n2000-mixed setting1 --n 2000 --lambda 1e-12,1e-3,100"
    "setting1-s0 setting1 --n 50 --seed 0"
    "setting1-s1 setting1 --n 50 --seed 1"
    "setting2-s0 setting2 --n 50 --seed 0"
    "setting2-s1 setting2 --n 50 --seed 1"
    "setting2-n35-s2 setting2 --n 35 --seed 2"
    "setting2-huge-lambda setting2 --n 50 --lambda 1e-12,1e308"
    "setting2-one-lambda setting2 --n 50 --lambda 0.1"
    "setting3 setting3 --m 25"
    "setting3-m100-s1 setting3 --m 100 --seed 1"
    "setting3-m50-s2 setting3 --m 50 --seed 2"
    "vle-data vle-data"
    "vle-data-n2000 vle-data --n 2000"
    "koopman koopman"
    "koopman-s1 koopman --seed 1"
    "control control --n 200 --m 25 --lambda 0.0001,0.1,100"
    "control-s1 control --n 200 --m 25 --lambda 0.0001,0.1,100 --seed 1"
    "control-paper control --n 200 --m 25"
)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

declare -A EXIT_STATUS  # "side/name" -> the call's exit status
for side in parent change; do
    if [ "$side" = parent ]; then src="$(cd "$1" && pwd)"; else src="$(cd "$2" && pwd)"; fi
    for call in "${CALLS[@]}"; do
        read -r name args <<< "$call"
        code=0
        # shellcheck disable=SC2086  # args is a word list
        PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 \
            python3 -m hybridkernel.cli $args --out "$WORK/$side/$name" >/dev/null || code=$?
        EXIT_STATUS["$side/$name"]=$code
    done
done

# Largest differences over the numeric cells of the files that differ
# between two output directories, one line per file.
max_differences() {
    python3 - "$1" "$2" <<'PY'
import filecmp, json, math, sys
from pathlib import Path

def cells(path):
    """(field, cell) pairs: each cell of a CSV column under the column's header,
    each leaf of a JSON document under its key path (list indices left out),
    and each JSON key as a text cell of its parent's path."""
    if path.suffix == ".json":
        def leaves(v, field):
            if isinstance(v, dict):
                for k, x in v.items():
                    yield field or "(top level)", k
                    yield from leaves(x, f"{field}.{k}" if field else k)
            elif isinstance(v, list):
                for x in v:
                    yield from leaves(x, field)
            elif isinstance(v, str):
                yield from ((field, c) for c in v.split(";"))
            else:
                yield field, v
        return list(leaves(json.loads(path.read_text()), ""))
    lines = path.read_text().splitlines()
    header = lines[0].split(",") if lines else []
    return [(header[j] if j < len(header) else f"column {j}", c)
            for line in lines for j, cell in enumerate(line.split(","))
            for c in cell.split(";")]

def number(c):
    if isinstance(c, int) or c is None:  # bool is an int
        return None
    try:
        return float(c)
    except (TypeError, ValueError):
        return None

a_root, b_root = Path(sys.argv[1]), Path(sys.argv[2])
names = sorted({p.relative_to(r) for r in (a_root, b_root) for p in r.rglob("*")
                if p.is_file() and p.name != "manifest.json"})
for name in names:
    a, b = a_root / name, b_root / name
    if not (a.is_file() and b.is_file()):
        print(f"           {name}: only in {'parent' if a.is_file() else 'change'}")
        continue
    if filecmp.cmp(a, b, shallow=False):
        continue
    ca, cb = cells(a), cells(b)
    if len(ca) != len(cb):
        print(f"           {name}: layout differs ({len(ca)} against {len(cb)} cells)")
        continue
    worst_abs = worst_rel = 0.0
    largest, delta, text_fields = {}, {}, set()
    for (field, x), (_, y) in zip(ca, cb):
        fx, fy = number(x), number(y)
        if fx is None or fy is None:
            if x != y:
                text_fields.add(field)
            continue
        largest[field] = max([largest.get(field, 0.0)]
                             + [abs(v) for v in (fx, fy) if math.isfinite(v)])
        if fx != fy and not (math.isnan(fx) and math.isnan(fy)):
            d = abs(fx - fy) if math.isfinite(fx) and math.isfinite(fy) else math.inf
            worst_abs = max(worst_abs, d)
            worst_rel = max(worst_rel, d / max(abs(fx), abs(fy)))
            delta[field] = max(delta.get(field, 0.0), d)
    norms = {f: d / largest[f] if largest[f] else math.inf for f, d in delta.items()}
    worst = max(norms, key=norms.get, default=None)
    norm = f"{norms[worst]:.3g} ({worst})" if worst is not None else "0"
    note = f"; text or integers differ in {', '.join(sorted(text_fields))}" if text_fields else ""
    print(f"           {name}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}, "
          f"max-norm {norm}{note}")
PY
}

status=0
for call in "${CALLS[@]}"; do
    read -r name _ <<< "$call"
    failed=""
    for side in parent change; do
        code=${EXIT_STATUS["$side/$name"]}
        if [ "$code" -ne 0 ]; then failed="${failed:+$failed, }$side exit $code"; fi
    done
    if [ -n "$failed" ]; then
        echo "FAILED     $name  ($failed)"
        status=1
    elif diff -r -x manifest.json "$WORK/parent/$name" "$WORK/change/$name" >/dev/null; then
        echo "same       $name"
    else
        echo "DIFFERENT  $name"
        max_differences "$WORK/parent/$name" "$WORK/change/$name"
        status=1
    fi
done
exit "$status"

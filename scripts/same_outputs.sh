#!/usr/bin/env bash
# Check that two source trees write the same CLI outputs.
#
#   scripts/same_outputs.sh PARENT_SRC CHANGE_SRC
#
# Each argument is a directory that holds the hybridkernel package (a
# checkout's src/). For each tree the script runs a fixed list of CLI calls
# with PYTHONPATH set to that tree and BLAS on one thread, then compares the
# outputs of each call with diff -r, leaving out manifest.json (it records a
# timestamp and the output path). Prints one line per call and exits 1 if any
# call differs.
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 PARENT_SRC CHANGE_SRC" >&2
    exit 2
fi

CALLS=(
    "setting1-n2000 setting1 --n 2000 --seed 0"
    "setting2-n2000 setting2 --n 2000 --seed 0"
    "setting1-s0 setting1 --n 50 --seed 0"
    "setting1-s1 setting1 --n 50 --seed 1"
    "setting2-s0 setting2 --n 50 --seed 0"
    "setting2-s1 setting2 --n 50 --seed 1"
    "setting3 setting3 --m 25"
    "vle-data vle-data"
    "koopman koopman"
    "control control --n 200 --m 25 --lambda 0.0001,0.1,100"
)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for side in parent change; do
    if [ "$side" = parent ]; then src="$(cd "$1" && pwd)"; else src="$(cd "$2" && pwd)"; fi
    for call in "${CALLS[@]}"; do
        read -r name args <<< "$call"
        # shellcheck disable=SC2086  # args is a word list
        PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 \
            python3 -m hybridkernel.cli $args --out "$WORK/$side/$name" >/dev/null
    done
done

status=0
for call in "${CALLS[@]}"; do
    read -r name _ <<< "$call"
    if diff -r -x manifest.json "$WORK/parent/$name" "$WORK/change/$name" >/dev/null; then
        echo "same       $name"
    else
        echo "DIFFERENT  $name"
        status=1
    fi
done
exit "$status"

#!/usr/bin/env bash
# Rerun every experiment with the default (reproduction) settings.
# Outputs land in out/<experiment>/; each run writes a manifest.json with the
# seeds consumed, and reruns are byte-identical except for timestamps.
# Runs the package from this checkout's src/, so it needs no install.
set -euo pipefail

OUT="${1:-out}"
SEED="${SEED:-0}"
SRC="$(cd "$(dirname "${BASH_SOURCE[0]}")/../src" && pwd)"

hybridkernel() {
    PYTHONPATH="$SRC" python3 -m hybridkernel.cli "$@"
}

hybridkernel vle-data --n 50 --seed "$SEED" --out "$OUT/vle-data"
hybridkernel setting1 --n 50 --seed "$SEED" --out "$OUT/setting1"
hybridkernel setting2 --n 50 --seed "$SEED" --out "$OUT/setting2"
for m in 25 50 100; do
    hybridkernel setting3 --n 50 --m "$m" --seed "$SEED" --out "$OUT/setting3-m$m"
done
hybridkernel koopman --n 200 --m 25 --seed "$SEED" --out "$OUT/koopman"
hybridkernel control --n 200 --m 25 --seed "$SEED" --out "$OUT/control"

echo "all experiments written to $OUT/"

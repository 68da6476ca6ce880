"""One benchmark sample: one sweep of a workload in this fresh interpreter.

    python3 perfbench/sweep.py --workload NAME --seed CLI_SEED --out DIR --result FILE
                               --src SRC_DIR [--trace] [--setup-only]

Times ``import hybridkernel.cli`` (setup), then each CLI call of the workload
through ``hybridkernel.cli.main``, then checks the outputs, and writes a JSON
result to FILE. Between calls it clears every ``functools`` cache in the
package, since a user runs each call as its own process. For a workload whose
sweep run.py rescales to a reference host speed, it times ``calibrate()``
right before the first call and right after the last one. With --trace every
function in ``layers.TRACED`` is wrapped before the first call, and spans go
to DIR/spans.tsv.gz. With --setup-only it stops after the import.

run.py starts this script with the thread caps and PYTHONPATH already set.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path


def _clear_caches(package: str) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def calibrate() -> float:
    """Seconds taken by a fixed mix of the kinds of work a closed-loop sweep
    does: scalar Python arithmetic, small numpy operations in a Python loop,
    and small BLAS matrix products. Nothing here touches the package."""
    import math

    import numpy as np

    t0 = time.perf_counter()
    x, acc = 0.3, 0.0
    for _ in range(600_000):
        x += 0.01 * (math.sin(x) - 0.5 * x)
        acc += x * x
    m, v = np.eye(6) * 0.5, np.arange(6.0)
    for _ in range(25_000):
        v = m @ v + 0.1 * np.tanh(v)
    a = np.random.default_rng(0).standard_normal((250, 250))
    for _ in range(100):
        a = a @ a
        a /= np.abs(a).max()
    return time.perf_counter() - t0


def _written(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_sweep(workload, seed: int, out: Path, trace: bool) -> dict:
    """The calls of one sweep, timed; the caller has imported hybridkernel.cli."""
    import checks
    import layers
    from hybridkernel import cli, experiments

    tracer = counters = None
    if trace:
        from tracer import Tracer
        tracer, counters = Tracer(), layers.LayerCounters()
        tracer.sweep_id = seed
        layers.install(tracer, counters)
    references = checks.load_references(workload.name)
    result = {"call_s": [], "problems": [], "accuracy_terms": [], "values": {},
              "files_written": 0, "bytes_written": 0, "calibration_s": []}
    if workload.rescaled:
        result["calibration_s"].append(calibrate())
    for i, call in enumerate(workload.calls):
        call_out = out / f"call{i}"
        argv = list(call) + ["--seed", str(seed), "--out", str(call_out)]
        _clear_caches(layers.PACKAGE)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            status = cli.main(argv)
            result["call_s"].append(time.perf_counter() - t0)
        unconverged = [w for w in caught if issubclass(w.category, RuntimeWarning)
                       and "simplex QP" in str(w.message)]
        if status != 0:
            result["problems"].append(f"{checks.call_label(call)}: exit status {status}")
        if unconverged:
            result["problems"].append(f"{checks.call_label(call)}: {len(unconverged)} "
                                      "unconverged QP warnings")
    if workload.rescaled:
        result["calibration_s"].append(calibrate())
    result["sweep_s"] = sum(result["call_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        tracer.unwrap()
        result["layers"] = layers.raw(tracer, counters, experiments.worker_count())
        tracer.save(out / "spans.tsv.gz")
    for i, call in enumerate(workload.calls):
        call_out = out / f"call{i}"
        problems, term, values = checks.check_call(workload.name, seed, call, call_out,
                                                   references)
        result["values"][checks.call_label(call)] = values
        result["problems"] += [f"{checks.call_label(call)}: {p}" for p in problems]
        result["accuracy_terms"].append(term)
        files, size = _written(call_out)
        result["files_written"] += files
        result["bytes_written"] += size
    return result


def _environment() -> dict:
    import numpy
    import scipy
    from hybridkernel import experiments

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS"),
            "HYBRIDKERNEL_THREADS": os.environ.get("HYBRIDKERNEL_THREADS"),
            "worker_count": experiments.worker_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True,
                        help="the src directory hybridkernel must be imported from")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import hybridkernel.cli
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "ok": False}
    expected = args.src.resolve() / "hybridkernel"
    if Path(hybridkernel.cli.__file__).resolve().parent != expected:
        result["problems"] = [f"hybridkernel imported from {hybridkernel.cli.__file__}, "
                              f"not {expected}"]
    elif args.setup_only:
        result["ok"] = True
    else:
        from workloads import WORKLOADS
        try:
            result.update(run_sweep(WORKLOADS[args.workload], args.seed, args.out, args.trace))
            result["ok"] = not result["problems"]
        except Exception:  # a failing sweep is a result, reported to run.py
            result["problems"] = [traceback.format_exc()]
    result["env"] = _environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

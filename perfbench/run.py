"""hybridkernel benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each sample is one sweep (sweep.py) in a fresh interpreter; samples run one
at a time. A pass runs the workload's panel of CLI seeds once; passes repeat
while another one still fits in --seconds (at least one pass runs).

--trace 0 prints the end-to-end metrics: sweep_s (median over passes of the
mean sweep time over the panel; on a workload marked rescaled each sweep time
is first rescaled to the reference host speed, see at_ref_speed()), setup_s
(median import time over at least SETUP_SAMPLES fresh interpreters),
peak_rss_mb (median over samples) and model_error (val_rmse or max_deviation,
see workloads.py).
--trace 1 runs one untraced pass and one traced pass and prints the
per-layer metrics of layers.PER_LAYER, trace_overhead_frac included.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a human-readable
report and the environment record. Extra modes, for maintaining the
benchmark: --write-references stores the checked outputs of one pass as the
workload's references; --check-exact runs two traced passes and compares the
metrics in layers.EXACT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
# Seconds sweep.calibrate() takes at the reference host speed: about its
# median on a 2-core x86-64 VM with the BLAS on one thread.
CALIBRATION_REF_S = 0.23
SAMPLE_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("HYBRIDKERNEL_THREADS", None)  # the program's own pool runs as shipped
    env["PYTHONPATH"] = str(SRC)
    return env


def run_sample(workload: str, seed: int, tag: str, trace=False, setup_only=False) -> dict:
    """One fresh interpreter; returns its result, or a failed one. Its output
    directory is deleted afterwards; spans are kept in WORK."""
    out = WORK / f"{tag}-seed{seed}"
    out.mkdir(parents=True)
    result_file = out / "result.json"
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--result", str(result_file),
           "--src", str(SRC)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=SAMPLE_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode == 0 and result_file.exists():
            result = json.loads(result_file.read_text())
        else:
            result = {"ok": False, "problems": [f"sweep.py exited {proc.returncode}: "
                                                f"{proc.stderr.strip()[-2000:]}"]}
    except subprocess.TimeoutExpired:
        result = {"ok": False, "problems": [f"sample timed out after {SAMPLE_TIMEOUT_S} s"]}
    spans = out / "spans.tsv.gz"
    if spans.exists():
        spans.replace(WORK / f"spans-{workload}-seed{seed}.tsv.gz")
    shutil.rmtree(out)
    return result


def run_pass(workload, seed: int, tag: str, trace=False) -> list:
    results = []
    for cli_seed in workload.panel_seeds(seed):
        result = run_sample(workload.name, cli_seed, tag, trace=trace)
        result["cli_seed"] = cli_seed
        for problem in result.get("problems", []):
            print(f"[{workload.name} cli seed {cli_seed}] FAILED: {problem}", file=sys.stderr)
        results.append(result)
    return results


def model_error(workload, samples: list) -> float | None:
    terms = [t for s in samples if s["ok"] for t in s["accuracy_terms"]]
    if not terms:
        return None
    if workload.accuracy == "max_deviation":
        return max(terms)
    return math.exp(statistics.fmean(math.log(t) for t in terms))


def at_ref_speed(result: dict) -> float:
    """A sample's sweep time, rescaled to the host speed at which
    sweep.calibrate() takes CALIBRATION_REF_S, by the calibrations timed right
    before and right after the sweep."""
    return result["sweep_s"] * CALIBRATION_REF_S / statistics.fmean(result["calibration_s"])


def pass_mean(results: list, rescaled: bool) -> float | None:
    times = [at_ref_speed(r) if rescaled else r["sweep_s"] for r in results if "sweep_s" in r]
    return statistics.fmean(times) if times else None


def median_over(passes: list, rescaled: bool) -> float | None:
    means = [m for m in (pass_mean(p, rescaled) for p in passes) if m is not None]
    return statistics.median(means) if means else None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(samples: list, seed: int, workload: str) -> dict:
    env = next((s["env"] for s in samples if "env" in s), {})
    return {"workload": workload, "workload_seed": seed, "nproc": os.cpu_count(),
            **env, "git_commit": git_commit()}


def measure(workload, seed: int, seconds: float) -> tuple[dict, list]:
    run_sample(workload.name, 0, "warmup", setup_only=True)  # compiles bytecode
    passes, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, f"pass{len(passes)}"))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    samples = [s for p in passes for s in p]
    setups = [s["setup_s"] for s in samples if "setup_s" in s]
    while len(setups) < SETUP_SAMPLES:
        extra = run_sample(workload.name, 0, f"setup{len(setups)}", setup_only=True)
        if "setup_s" not in extra:
            sys.exit(f"import-only sample failed: {extra['problems']}")
        setups.append(extra["setup_s"])
    ok = [s for s in samples if s["ok"]]
    metrics = {
        "sweep_s": (median_over(passes, workload.rescaled), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in ok) if ok else None, "MB"),
        "model_error": (model_error(workload, samples), "native"),
    }
    print(f"{workload.name}: sweep_s is the median of {len(passes)} pass(es) of "
          f"{workload.panel} sample(s); setup_s is the median of {len(setups)} imports")
    if workload.rescaled:
        calibration = [c for s in samples for c in s.get("calibration_s", [])]
        print(f"{workload.name}: sweep_s is rescaled to the reference host speed; as "
              f"measured it is {median_over(passes, False)!r} s, and calibrate() took "
              f"{statistics.median(calibration)!r} s (median of {len(calibration)})")
    return metrics, samples


def trace_metrics(workload, seed: int) -> tuple[dict, list]:
    import layers

    run_sample(workload.name, 0, "warmup", setup_only=True)
    plain = run_pass(workload, seed, "untraced")
    traced = run_pass(workload, seed, "traced", trace=True)
    if not all(s["ok"] for s in plain + traced):
        return {}, plain + traced
    extra = {
        "cli.bytes_written": sum(s["bytes_written"] for s in traced),
        "cli.files_written": sum(s["files_written"] for s in traced),
        "trace_overhead_frac": (pass_mean(traced, workload.rescaled)
                                / pass_mean(plain, workload.rescaled) - 1.0),
    }
    metrics = layers.finalize(layers.merge([s["layers"] for s in traced]), extra)
    return {k: (v["value"], v["unit"]) for k, v in metrics.items()}, plain + traced


def check_exact(workload, seed: int) -> int:
    import layers

    runs = []
    for _ in range(2):
        traced = run_pass(workload, seed, "traced", trace=True)
        if not all(s["ok"] for s in traced):
            print("a traced sample failed", file=sys.stderr)
            return 1
        merged = layers.merge([s["layers"] for s in traced])
        extra = {"cli.bytes_written": 0, "cli.files_written":
                 sum(s["files_written"] for s in traced), "trace_overhead_frac": 0.0}
        runs.append(layers.finalize(merged, extra))
    differ = [n for n in layers.EXACT if runs[0][n]["value"] != runs[1][n]["value"]]
    for name in layers.EXACT:
        print(f"{name} = {runs[0][name]['value']!r}"
              + (f" / {runs[1][name]['value']!r} DIFFERS" if name in differ else ""))
    print(f"{workload.name}: {len(layers.EXACT) - len(differ)} of {len(layers.EXACT)} "
          "exact metrics repeat")
    return 1 if differ else 0


def write_references(workload, seed: int) -> int:
    """Store the checked outputs of one pass, if every invariant holds."""
    import checks

    path = checks.REFERENCE_DIR / f"{workload.name}.json"
    old = WORK / path.name
    if path.exists():
        path.replace(old)  # so the pass is checked against invariants only
    samples = run_pass(workload, seed, "refs")
    if not all(s["ok"] for s in samples):
        if old.exists():
            old.replace(path)
        print("references not written: a sample failed", file=sys.stderr)
        return 1
    doc = {"rtol": checks.RTOL,
           "note": "checked outputs of each panel seed; regenerate with "
                   "run.py --write-references only when outputs change on purpose",
           "seeds": {str(s["cli_seed"]): {label: checks.reference_values(values)
                                           for label, values in s["values"].items()}
                     for s in samples}}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    parser.add_argument("--check-exact", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "hybridkernel" / "cli.py").is_file():
        print(f"no hybridkernel sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    if args.check_exact:
        return check_exact(workload, args.seed)
    if args.write_references:
        return write_references(workload, args.seed)
    if args.trace:
        metrics, samples = trace_metrics(workload, args.seed)
    else:
        metrics, samples = measure(workload, args.seed, args.seconds)
    failed = sum(not s["ok"] for s in samples)
    env = environment(samples, args.seed, workload.name)
    print(json.dumps({"environment": env}))
    for name, (value, unit) in metrics.items():
        label = workload.accuracy if name == "model_error" else name
        print(f"{workload.name:15s} {label:40s} {value!r} {unit}")
    print(f"{workload.name:15s} {'failed_frac':40s} {failed / len(samples)!r} "
          f"({failed} of {len(samples)} samples)")
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing or not metrics:
        print(f"no value for {missing or 'the per-layer metrics'}: samples failed",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

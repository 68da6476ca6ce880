"""run.py's contract: BENCHMARK.json agrees with the code, and without the
program's sources the benchmark fails without printing a result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import layers
from workloads import BENCHMARKED, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(WORKLOADS[name].name, WORKLOADS[name].why) for name in BENCHMARKED]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["sweep_s", "setup_s", "peak_rss_mb", "model_error"]


def test_panel_rotation_is_a_permutation():
    for w in WORKLOADS.values():
        for seed in (0, 1, 5, 10**9):
            assert sorted(w.panel_seeds(seed)) == list(range(w.panel))


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "static-paper",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_rescaled_sweep_time_follows_the_calibration():
    import run

    sample = {"sweep_s": 10.0, "calibration_s": [1.5 * run.CALIBRATION_REF_S,
                                                 2.5 * run.CALIBRATION_REF_S]}
    assert run.pass_mean([sample], rescaled=True) == 5.0
    assert run.pass_mean([sample], rescaled=False) == 10.0

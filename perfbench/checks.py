"""Output checks for one sweep, and the accuracy figure it reports.

Two kinds of check:

* invariants that hold for any seed at the workload's sizes: acceptance
  criteria 3, 4, 9 and 11, simplex weights that are >= 0 and sum to 1, and
  theta* inside the hull of the theta samples;
* for seeds with stored references, every number in the sweep's CSV/JSON
  outputs against ``references/<workload>.json``, to the relative tolerance
  stored there.

``check_call`` returns a list of problems (empty when the outputs are right),
the call's accuracy term and the numbers it checked.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "references"
RTOL = 1e-6  # relative tolerance of the stored-reference comparison
ATOL = 1e-12  # absolute floor, for values that are exactly 0 in the reference
TREND_TOL = 1e-12  # slack of the monotone-trend invariants, as in the acceptance tests


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(";")]


def extract(call: tuple, out: Path) -> dict:
    """Every number a call wrote that the checks look at: file -> list of rows,
    each row a list of floats."""
    kind = call[0]
    if kind == "setting1":
        files = {"summary.csv": ["lambda", "train_rmse", "val_rmse"]}
    elif kind == "setting2":
        files = {"reference.csv": ["lambda", "train_rmse", "val_rmse"],
                 "margules.csv": ["lambda", "train_rmse", "val_rmse", "theta_star"]}
    elif kind == "setting3":
        files = {"summary.csv": ["lambda", "train_rmse", "val_rmse", "theta_star"]}
    elif kind == "koopman":
        files = {"sweep.csv": ["lambda_R", "train_rmse", "val_rmse", "frob_R"]}
    elif kind == "control":
        rows = json.loads((out / "comparison.json").read_text())
        return {"comparison.json": [[r["lambda_R"], r["x0_index"], r["max_deviation"],
                                     float(r["v_monotone_truth"]), float(r["v_monotone_model"])]
                                    for r in rows]}
    else:
        raise ValueError(f"no checks for {kind!r}")
    values = {}
    for name, columns in files.items():
        values[name] = [[v for c in columns for v in _floats(row[c])]
                        for row in _read_csv(out / name)]
    if kind == "setting3":
        for path in sorted(out.glob("mixture_model_*.json")):
            doc = json.loads(path.read_text())
            values[path.name] = [list(doc["weights"]),
                                 [t for pair in doc["theta_samples"] for t in pair],
                                 _floats(doc["theta_star"])]
    return values


def _nondecreasing(xs) -> bool:
    return all(b >= a - TREND_TOL for a, b in zip(xs, xs[1:]))


def invariants(call: tuple, values: dict) -> list[str]:
    problems = []
    for name, rows in values.items():
        if not rows or not all(math.isfinite(v) for row in rows for v in row):
            problems.append(f"{name}: empty or non-finite output")
    if problems:
        return problems
    kind = call[0]
    if kind == "setting1":
        rows = values["summary.csv"]
        if not _nondecreasing([r[1] for r in rows]):
            problems.append("criterion 3: train RMSE not nondecreasing in lambda")
        if not rows[0][2] < rows[-1][2]:
            problems.append("criterion 3: val RMSE at the smallest lambda is not below "
                            "the one at the largest")
    elif kind == "setting2":
        for ref, mar in zip(values["reference.csv"], values["margules.csv"]):
            if not (mar[1] < ref[1] and mar[2] < ref[2]):
                problems.append(f"criterion 4: Margules does not beat the reference at "
                                f"lambda={ref[0]!r}")
    elif kind == "setting3":
        summary = values["summary.csv"]
        models = [values[k] for k in sorted(values) if k.startswith("mixture_model_")]
        if len(models) != len(summary):
            problems.append(f"{len(models)} mixture JSONs for {len(summary)} grid lambdas")
        for row, (weights, flat, theta_star) in zip(summary, models):
            w = np.array(weights)
            thetas = np.array(flat).reshape(-1, 2)
            if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
                problems.append(f"lambda={row[0]!r}: weights are not on the simplex")
            combo = w @ thetas
            if not (np.allclose(combo, theta_star, rtol=1e-9, atol=1e-12)
                    and np.all(thetas.min(axis=0) - 1e-12 <= theta_star)
                    and np.all(theta_star <= thetas.max(axis=0) + 1e-12)):
                problems.append(f"lambda={row[0]!r}: theta* is not the weighted mean "
                                "inside the samples' hull")
            if not np.allclose(row[3:], theta_star, rtol=1e-12, atol=0):
                problems.append(f"lambda={row[0]!r}: summary theta* differs from the JSON")
    elif kind == "koopman":
        rows = values["sweep.csv"]
        if not (_nondecreasing([r[1] for r in rows]) and _nondecreasing([r[2] for r in rows])
                and _nondecreasing([-r[3] for r in rows])):
            problems.append("criterion 9: RMSE not nondecreasing or |R|_F not "
                            "nonincreasing in lambda_R")
    elif kind == "control":
        rows = values["comparison.json"]
        if max(r[2] for r in rows) >= 0.05:
            problems.append("criterion 11: max trajectory deviation >= 0.05")
        if not all(r[3] and r[4] for r in rows):
            problems.append("criterion 11: V not monotone along a trajectory")
    return problems


def accuracy_term(call: tuple, values: dict) -> float:
    """The call's lowest validation RMSE on its grid, or for control its
    largest truth-vs-model deviation."""
    if call[0] == "control":
        return max(r[2] for r in values["comparison.json"])
    return min(row[2] for name, rows in values.items() if name.endswith(".csv")
               for row in rows)


def reference_values(values: dict) -> dict:
    """The part of a call's numbers that references store: the summary files.
    Mixture-model JSONs are checked by the invariants only."""
    return {k: v for k, v in values.items() if not k.startswith("mixture_model_")}


def call_label(call: tuple) -> str:
    return " ".join(call)


def load_references(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {"seeds": {}}


def compare(expected: dict, values: dict, rtol: float) -> list[str]:
    problems = []
    for name, rows in expected.items():
        got = values.get(name)
        if got is None or len(got) != len(rows) or any(len(a) != len(b)
                                                       for a, b in zip(got, rows)):
            problems.append(f"{name}: shape differs from the reference")
            continue
        for i, (a_row, b_row) in enumerate(zip(got, rows)):
            for j, (a, b) in enumerate(zip(a_row, b_row)):
                if not abs(a - b) <= rtol * max(abs(a), abs(b)) + ATOL:
                    problems.append(f"{name} row {i} value {j}: {a!r} vs reference {b!r}")
                    break
    return problems


def check_call(workload: str, seed: int, call: tuple, out: Path,
               references: dict) -> tuple[list[str], float | None, dict | None]:
    try:
        values = extract(call, out)
    except (OSError, KeyError, ValueError) as e:
        return [f"unreadable output: {e!r}"], None, None
    problems = invariants(call, values)
    expected = references["seeds"].get(str(seed), {}).get(call_label(call))
    if expected is not None:
        problems += compare(expected, values, references.get("rtol", RTOL))
    term = accuracy_term(call, values) if not problems else None
    return problems, term, values

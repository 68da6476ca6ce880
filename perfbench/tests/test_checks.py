"""The output checker accepts the stored references and rejects changed outputs."""

import csv
import json

import pytest

import checks

KOOPMAN = ("koopman", "--n", "200", "--m", "25")
CONTROL = ("control", "--n", "200", "--m", "25", "--lambda", "0.0001,0.1,100")


def _write_sweep(out, rows):
    out.mkdir(exist_ok=True)
    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_R", "train_rmse", "val_rmse", "frob_R"])
        writer.writerows([[repr(v) for v in row] for row in rows])


def _reference_rows(workload, call, name):
    refs = checks.load_references(workload)
    return refs, [list(r) for r in refs["seeds"]["0"][checks.call_label(call)][name]]


def test_reference_outputs_pass(tmp_path):
    refs, rows = _reference_rows("koopman-sweep", KOOPMAN, "sweep.csv")
    _write_sweep(tmp_path, rows)
    problems, term, _ = checks.check_call("koopman-sweep", 0, KOOPMAN, tmp_path, refs)
    assert problems == []
    assert term == min(r[2] for r in rows)


def test_perturbed_summary_value_is_rejected(tmp_path):
    refs, rows = _reference_rows("koopman-sweep", KOOPMAN, "sweep.csv")
    rows[3][2] *= 1.0 + 1e-4  # a val_rmse that still satisfies criterion 9
    _write_sweep(tmp_path, rows)
    problems, term, _ = checks.check_call("koopman-sweep", 0, KOOPMAN, tmp_path, refs)
    assert any("sweep.csv row 3 value 2" in p for p in problems)
    assert term is None


def test_broken_trend_is_rejected_for_any_seed(tmp_path):
    refs, rows = _reference_rows("koopman-sweep", KOOPMAN, "sweep.csv")
    rows[-1][1] = rows[0][1] / 2  # train RMSE falls at the largest lambda_R
    _write_sweep(tmp_path, rows)
    problems, _, _ = checks.check_call("koopman-sweep", 12345, KOOPMAN, tmp_path, refs)
    assert problems == ["criterion 9: RMSE not nondecreasing or |R|_F not nonincreasing "
                        "in lambda_R"]


@pytest.mark.parametrize("column, value, message", [
    ("max_deviation", 0.06, "criterion 11: max trajectory deviation >= 0.05"),
    ("v_monotone_model", False, "criterion 11: V not monotone along a trajectory"),
])
def test_control_criterion_11(tmp_path, column, value, message):
    refs, rows = _reference_rows("closed-loop", CONTROL, "comparison.json")
    docs = [{"lambda_R": r[0], "x0_index": int(r[1]), "max_deviation": r[2],
             "v_monotone_truth": bool(r[3]), "v_monotone_model": bool(r[4])} for r in rows]
    docs[0][column] = value
    (tmp_path / "comparison.json").write_text(json.dumps(docs))
    problems, _, _ = checks.check_call("closed-loop", 7, CONTROL, tmp_path, refs)
    assert problems == [message]


def test_mixture_weights_off_the_simplex_are_rejected():
    call = ("setting3", "--n", "50", "--m", "2")
    values = {"summary.csv": [[1.0, 0.1, 0.2, 0.25, 0.25]],
              "mixture_model_00.json": [[0.5, 0.6], [0.0, 0.0, 0.5, 0.5], [0.25, 0.25]]}
    assert checks.invariants(call, values) == [
        "lambda=1.0: weights are not on the simplex",
        "lambda=1.0: theta* is not the weighted mean inside the samples' hull"]
    values["mixture_model_00.json"][0] = [0.5, 0.5]
    assert checks.invariants(call, values) == []

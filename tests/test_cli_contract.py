"""The CLI's exit-code contract over a fixed grid of configurations.

Each call drives ``cli.main`` in-process with every warning an error, and
must exit 0, 2 or 3 without raising:

- on 0, every number in every CSV and JSON file it wrote is finite, and
  ``manifest.json`` lists exactly the other files it wrote;
- on 2, stderr is one ``config error:`` line and no ``manifest.json`` exists;
- on 3, stderr is one ``numerical failure:`` line.

The grid: every subcommand at n = 1, 2 and 3 with m = 1; at n = 6 and m = 2
with each of the grids of one λ at 5e-324, 1e-300, 1e-30 and 1e308; and at
n = 4 with the seeds 2**64 - 1 and 10**23. Hypothesis then draws calls
through the same checks: a subcommand, n ≤ 8 and m ≤ 4, a grid of 1 to 3 λ
log-uniform over [5e-324, 1e308] and a seed below 2**64, given as flags or,
at times, as a --config file.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkernel import cli

MAX_DRAWN_CALLS = 25  # the drawn calls take about 1 s of the module's time

GRID = (
    [(exp, "--n", str(n), "--m", "1") for exp in cli.EXPERIMENTS for n in (1, 2, 3)]
    + [(exp, "--n", "6", "--m", "2", "--lambda", lam) for exp in cli.EXPERIMENTS
       for lam in ("5e-324", "1e-300", "1e-30", "1e308")]
    + [(exp, "--n", "4", "--seed", str(seed)) for exp in cli.EXPERIMENTS
       for seed in (2**64 - 1, 10**23)]
)


def numbers(path):
    """Every number in a CSV or JSON file the CLI wrote: each CSV cell split at
    ';', and each JSON number and each ';'-separated part of a JSON string
    that parses as a float."""
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()[1:]
        return [float(c) for line in lines for cell in line.split(",") if cell
                for c in cell.split(";")]

    def leaves(v):
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, list):
            return [x for item in v for x in leaves(item)]
        if isinstance(v, str):
            out = []
            for part in v.split(";"):
                try:
                    out.append(float(part))
                except ValueError:
                    pass
            return out
        return [] if v is None or isinstance(v, bool) else [v]
    return leaves(json.loads(path.read_text()))


def keeps_the_exit_code_contract(argv, out: Path) -> None:
    """Run cli.main(argv) into `out` with every warning an error, and check
    the exit status against what the call wrote."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        status = cli.main([*argv, "--out", str(out)])
    err = stderr.getvalue().splitlines()
    assert status in (0, 2, 3), err
    if status == 2:
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert not (out / "manifest.json").exists()
    elif status == 3:
        assert len(err) == 1 and err[0].startswith("numerical failure: "), err
    else:
        assert err == []
        written = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                         if p.is_file() and p.name != "manifest.json")
        assert json.loads((out / "manifest.json").read_text())["files"] == written
        for name in written + ["manifest.json"]:
            assert all(math.isfinite(v) for v in numbers(out / name)), name


@pytest.mark.parametrize("argv", GRID, ids=[" ".join(a) for a in GRID])
def test_every_call_keeps_the_exit_code_contract(argv, tmp_path):
    keeps_the_exit_code_contract(argv, tmp_path / "out")


# log10 of 5e-324, the least positive double, and of 1e308
LOG_LAMBDA = (math.log10(5e-324), 308.0)


@st.composite
def calls(draw):
    """A drawn call: (subcommand, {config key: value}, through a config file)."""
    values = {"n": draw(st.integers(1, 8)), "m": draw(st.integers(1, 4)),
              "seed": draw(st.integers(0, 2 ** 64 - 1)),
              "lambda": ",".join(repr(max(10.0 ** e, 5e-324)) for e in
                                 draw(st.lists(st.floats(*LOG_LAMBDA), min_size=1, max_size=3)))}
    return draw(st.sampled_from(cli.EXPERIMENTS)), values, draw(st.booleans())


@settings(max_examples=MAX_DRAWN_CALLS, deadline=None)
@given(calls())
def test_drawn_calls_keep_the_exit_code_contract(call):
    experiment, values, config = call
    with tempfile.TemporaryDirectory() as tmp:
        if config:
            path = Path(tmp) / "run.cfg"
            path.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
            argv = [experiment, "--config", str(path)]
        else:
            argv = [experiment, *(arg for key, value in values.items()
                                  for arg in (f"--{key}", str(value)))]
        keeps_the_exit_code_contract(argv, Path(tmp) / "out")

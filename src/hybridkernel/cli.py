"""Command-line experiment runner.

Subcommands: vle-data, setting1, setting2, setting3, koopman, control.
Each accepts --seed, --out, --lambda (comma-separated grid), --m, --n, and an
optional --config pointing at a flat key=value file; flags override the file.
All outputs are deterministic per seed (rerunning a config reproduces every
numeric byte; only the manifest timestamp changes).

Exit codes: 0 success, 2 config error, 3 numerical failure (an unconverged QP
included).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import __version__, experiments, thermo_vle
from .errors import ConfigError, HybridKernelError

EXPERIMENTS = ("vle-data", "setting1", "setting2", "setting3", "koopman", "control")
CONFIG_KEYS = ("experiment", "seed", "lambda", "m", "n", "out")


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    lambda_grid: tuple = ()
    m: int = 25
    n: int = None
    output_dir: Path = Path("out")

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.n is None:
            self.n = 200 if self.experiment in ("koopman", "control") else 50
        if not self.lambda_grid:
            self.lambda_grid = (experiments.DEFAULT_LAMBDA_R_GRID
                                if self.experiment in ("koopman", "control")
                                else experiments.DEFAULT_LAMBDA_GRID)
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not all(math.isfinite(l) and l > 0 for l in self.lambda_grid):
            raise ConfigError("lambda grid entries must be finite and positive")
        self.output_dir = Path(self.output_dir)

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "lambda_grid": [float(l) for l in self.lambda_grid],
            "m": self.m,
            "n": self.n,
            "out": str(self.output_dir),
        }


def _parse_lambda_grid(text: str) -> tuple:
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as e:
        raise ConfigError(f"bad lambda grid {text!r}: {e}") from e
    if not grid:
        raise ConfigError("lambda grid is empty")
    return grid


def read_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment; unknown keys are rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = val
    return values


def parse_config(experiment: str, args: argparse.Namespace) -> ExperimentConfig:
    file_values = read_config_file(args.config) if args.config else {}
    if "experiment" in file_values and file_values["experiment"] != experiment:
        raise ConfigError(
            f"config file names experiment {file_values['experiment']!r}, "
            f"but subcommand is {experiment!r}")

    kwargs = {}
    for flag, key, cast, name in ((args.seed, "seed", int, "seed"),
                                  (args.lambda_grid, "lambda", _parse_lambda_grid,
                                   "lambda_grid"),
                                  (args.m, "m", int, "m"), (args.n, "n", int, "n"),
                                  (args.out, "out", Path, "output_dir")):
        if flag is not None:
            kwargs[name] = cast(flag)
        elif key in file_values:
            try:
                kwargs[name] = cast(file_values[key])
            except (ValueError, ConfigError) as e:
                raise ConfigError(f"config key {key!r}: {e}") from e
    return ExperimentConfig(experiment=experiment, **kwargs)


def _cell(v) -> str:
    """One CSV cell: an array as its floats joined by ';', a number as repr(float)."""
    if isinstance(v, np.ndarray):
        return ";".join(map(repr, v.tolist()))
    return repr(float(v))


class RunOutput:
    """Every file one run writes, under one directory. Each write records the
    file's name, so the manifest lists exactly what the run wrote."""

    def __init__(self, root: Path):
        self.root, self.written = root, []

    def _open(self, name: str):
        self.written.append(name)
        return (self.root / name).open("w", newline="")

    def json(self, name: str, doc) -> None:
        """doc is a JSON text (a model's to_json) or an object to dump with indent 2."""
        with self._open(name) as fh:
            fh.write((doc if isinstance(doc, str) else json.dumps(doc, indent=2)) + "\n")

    def csv(self, name: str, columns, rows) -> None:
        """A header and one line per row of str cells, CRLF-ended: what
        csv.writer writes for cells without commas, quotes or line breaks."""
        with self._open(name) as fh:
            fh.write(",".join(columns) + "\r\n")
            fh.writelines(",".join(row) + "\r\n" for row in rows)

    def table(self, name: str, rows: list[dict], columns: tuple) -> None:
        self.csv(name, columns, ([_cell(row[c]) for c in columns] for row in rows))

    def vle_data(self, name: str, n: int, seed: int) -> None:
        """name.csv with the points x,y,T,gex_rt, and a sidecar with P and the seed."""
        points = experiments.vle_points(n, seed)
        self.csv(f"{name}.csv", ("x", "y", "T", "gex_rt"),
                 (map(repr, (p.x, p.y, p.T, thermo_vle.excess_gibbs_from_txy(p))) for p in points))
        self.json(f"{name}.csv.meta.json",
                  {"pressure_mmHg": thermo_vle.ATM_MMHG, "seed": seed, "n": len(points)})

    def trajectory(self, name: str, traj) -> None:
        """Rows t,x1,x2,u; u is empty where the trajectory has no control."""
        columns = [traj.times.tolist(), *traj.states[:, :2].T.tolist(), traj.controls.tolist()]
        self.csv(name, ("t", "x1", "x2", "u"),
                 zip_longest(*(map(repr, c) for c in columns), fillvalue=""))


RMSE_COLUMNS = ("lambda", "train_rmse", "val_rmse")
VLE_DATA = {"vle-data": ("data",), "setting1": ("train", "val"), "setting2": ("train", "val")}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {config.output_dir}: {e}") from e
    out = RunOutput(config.output_dir)
    seeds = experiments.seeds(config.experiment, config.seed)
    sweep = {"n": config.n, "seed": config.seed, "lambda_grid": config.lambda_grid}
    for name, key in zip(VLE_DATA.get(config.experiment, ()),
                         ("data_seed", "validation_seed")):
        out.vle_data(name, config.n, seeds[key])

    if config.experiment == "setting1":
        out.table("summary.csv", experiments.run_setting1(**sweep), RMSE_COLUMNS)

    elif config.experiment == "setting2":
        result = experiments.run_setting2(**sweep)
        out.table("reference.csv", result["reference"], RMSE_COLUMNS)
        out.table("margules.csv", result["margules"], RMSE_COLUMNS + ("theta_star",))
        # model JSON at the last grid lambda, for downstream inspection
        last = result["margules"][-1]
        out.json("margules_model.json", last["model"].to_json(
            lambda_theta=experiments.DEFAULT_LAMBDA_THETA, lambda_r=last["lambda"]))

    elif config.experiment == "setting3":
        rows = experiments.run_setting3(m=config.m, **sweep)
        out.table("summary.csv", rows, RMSE_COLUMNS + ("theta_star",))
        for i, row in enumerate(rows):
            out.json(f"mixture_model_{i:02d}.json", row["model"].to_json(
                lambda_r=row["lambda"], lambda_omega=experiments.DEFAULT_LAMBDA_OMEGA,
                theta_samples=row["theta_samples"].tolist(),
                theta_star=_cell(row["theta_star"]), seed=config.seed,
                theta_seed=seeds["theta_seed"]))

    elif config.experiment == "koopman":
        rows = experiments.run_koopman(m=config.m, **sweep)
        out.table("sweep.csv", rows, ("lambda_R", "train_rmse", "val_rmse", "frob_R"))
        for i, (row, model) in enumerate(zip(rows, experiments.koopman_models(rows))):
            out.json(f"koopman_model_{i:02d}.json", model.to_json(
                lambda_b=experiments.DEFAULT_LAMBDA_B, lambda_R=row["lambda_R"], seeds=seeds))

    elif config.experiment == "control":
        rows = experiments.run_control(m=config.m, **sweep)
        out.json("comparison.json", [{k: v for k, v in row.items()
                                      if not k.startswith("trajectory")} for row in rows])
        (out.root / "trajectories").mkdir(exist_ok=True)
        for i, row in enumerate(rows):
            for kind in ("truth", "model"):
                out.trajectory(f"trajectories/run{i:03d}_x{row['x0_index']}_{kind}.csv",
                               row[f"trajectory_{kind}"])

    out.json("manifest.json", {"version": __version__, "numpy_version": np.__version__,
                               "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                               "config": config.echo(), "seeds": seeds,
                               "files": sorted(out.written)})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hybridkernel",
                                     description="Convex hybrid-modeling experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--lambda", dest="lambda_grid", type=str, default=None,
                       help="comma-separated regularization grid")
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file (flags override)")

    args = parser.parse_args(argv)
    try:
        return run(parse_config(args.experiment, args))
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (HybridKernelError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

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
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, experiments, koopman, thermo_vle
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
        if any(l <= 0 for l in self.lambda_grid):
            raise ConfigError("lambda grid entries must be positive")
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
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] if isinstance(row[c], str) else repr(float(row[c]))
                             for c in columns])


def _write_manifest(out: Path, config: ExperimentConfig, seeds: dict,
                    files: list[str]) -> None:
    manifest = {
        "version": __version__,
        "numpy_version": np.__version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config.echo(),
        "seeds": seeds,
        "files": sorted(files),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_vle_data(out: Path, config: ExperimentConfig) -> list[str]:
    """train.csv and val.csv from the VLE points the sweep fits."""
    files = []
    for name, seed in (("train", config.seed), ("val", config.seed + 1)):
        thermo_vle.save_vle_csv(experiments.vle_points(config.n, seed),
                                out / f"{name}.csv", seed=seed)
        files += [f"{name}.csv", f"{name}.csv.meta.json"]
    return files


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    seeds = {"data_seed": config.seed, "validation_seed": config.seed + 1}
    files = []

    if config.experiment == "vle-data":
        thermo_vle.save_vle_csv(experiments.vle_points(config.n, config.seed),
                                out / "data.csv", seed=config.seed)
        files += ["data.csv", "data.csv.meta.json"]

    elif config.experiment == "setting1":
        files += _write_vle_data(out, config)
        rows = experiments.run_setting1(n=config.n, seed=config.seed,
                                        lambda_grid=config.lambda_grid)
        _write_csv(out / "summary.csv", rows, ["lambda", "train_rmse", "val_rmse"])
        files.append("summary.csv")

    elif config.experiment == "setting2":
        files += _write_vle_data(out, config)
        result = experiments.run_setting2(n=config.n, seed=config.seed,
                                          lambda_grid=config.lambda_grid)
        _write_csv(out / "reference.csv", result["reference"],
                   ["lambda", "train_rmse", "val_rmse"])
        _write_csv(out / "margules.csv", result["margules"],
                   ["lambda", "train_rmse", "val_rmse", "theta_star"])
        files += ["reference.csv", "margules.csv"]
        # model JSON at the last grid lambda, for downstream inspection
        last = result["margules"][-1]
        (out / "margules_model.json").write_text(last["model"].to_json(
            lambda_theta=experiments.DEFAULT_LAMBDA_THETA, lambda_r=last["lambda"]) + "\n")
        files.append("margules_model.json")

    elif config.experiment == "setting3":
        theta_seed = config.seed + 1000
        seeds["theta_seed"] = theta_seed
        rows = experiments.run_setting3(n=config.n, seed=config.seed, m=config.m,
                                        lambda_grid=config.lambda_grid,
                                        theta_seed=theta_seed)
        _write_csv(out / "summary.csv", rows,
                   ["lambda", "train_rmse", "val_rmse", "theta_star"])
        files.append("summary.csv")
        for i, row in enumerate(rows):
            doc = row["model"].to_json(lambda_r=row["lambda"], lambda_omega=0.0,
                                       theta_samples=row["theta_samples"].tolist(),
                                       theta_star=row["theta_star"], seed=config.seed,
                                       theta_seed=theta_seed)
            name = f"mixture_model_{i:02d}.json"
            (out / name).write_text(doc + "\n")
            files.append(name)

    elif config.experiment == "koopman":
        theta_seed = config.seed + 1000
        seeds["theta_seed"] = theta_seed
        rows = experiments.run_koopman(n=config.n, seed=config.seed, m=config.m,
                                       lambda_grid=config.lambda_grid,
                                       theta_seed=theta_seed)
        _write_csv(out / "sweep.csv", rows,
                   ["lambda_R", "train_rmse", "val_rmse", "frob_R"])
        files.append("sweep.csv")
        for i, (row, model) in enumerate(zip(rows, experiments.koopman_models(rows))):
            doc = koopman.model_to_json_dict(model,
                                             lambda_b=experiments.DEFAULT_LAMBDA_B,
                                             lambda_R=row["lambda_R"], seeds=seeds)
            name = f"koopman_model_{i:02d}.json"
            (out / name).write_text(json.dumps(doc, indent=2) + "\n")
            files.append(name)

    elif config.experiment == "control":
        state_seed = config.seed + 2000
        seeds["theta_seed"] = config.seed + 1000
        seeds["state_seed"] = state_seed
        rows = experiments.run_control(seed=config.seed, n=config.n, m=config.m,
                                       lambda_grid=config.lambda_grid,
                                       state_seed=state_seed, keep_trajectories=True)
        summary = [{k: v for k, v in row.items() if not k.startswith("trajectory")}
                   for row in rows]
        (out / "comparison.json").write_text(json.dumps(summary, indent=2) + "\n")
        files.append("comparison.json")
        traj_dir = out / "trajectories"
        traj_dir.mkdir(exist_ok=True)
        for i, row in enumerate(rows):
            for kind in ("truth", "model"):
                name = f"trajectories/run{i:03d}_x{row['x0_index']}_{kind}.csv"
                row[f"trajectory_{kind}"].save_csv(out / name)
                files.append(name)

    _write_manifest(out, config, seeds, files)
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
        config = parse_config(args.experiment, args)
        experiments.worker_count()  # rejects a bad HYBRIDKERNEL_THREADS up front
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (HybridKernelError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

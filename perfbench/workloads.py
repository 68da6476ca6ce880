"""The benchmark's workloads: which CLI calls make up one sweep, and on which data.

A sweep is the list of ``hybridkernel.cli.main`` calls a user runs to
reproduce one part of the paper. Each call gets ``--seed <panel seed>`` and its
own ``--out`` directory appended.

Every workload runs over a fixed panel of CLI seeds (see README.md, "Why the
seed does not pick new data"): the first ``panel`` seeds 0, 1, ... The workload
seed only rotates the order in which the panel runs.

``BENCHMARKED`` names the workloads that ``BENCHMARK.json`` lists. The others
run the same way by hand (README.md, "Workloads").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple  # argv lists, without --seed and --out
    panel: int  # number of CLI seeds a pass covers
    accuracy: str  # "val_rmse" or "max_deviation"
    # sweep_s rescaled to a reference host speed (README.md, "Bounds"): for
    # sweeps of scalar Python on one thread, whose wall time follows the speed
    # of sweep.calibrate()
    rescaled: bool = False

    def panel_seeds(self, seed: int) -> list[int]:
        """CLI seeds of one pass, rotated by the workload seed."""
        return [(seed + k) % self.panel for k in range(self.panel)]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="static-paper",
        why="paper-size static fits: Wilson family columns and simplex-QP FISTA "
            "dominate; kernels and linalg are small at n=50",
        calls=(("setting1", "--n", "50"),
               ("setting2", "--n", "50"),
               ("setting3", "--n", "50", "--m", "25"),
               ("setting3", "--n", "50", "--m", "50"),
               ("setting3", "--n", "50", "--m", "100")),
        panel=4,
        accuracy="val_rmse",
    ),
    Workload(
        name="static-large-n",
        why="n=2000 static fits: O(n^3) Cholesky, n^2 Gram matrices and bubble "
            "points dominate; no QP runs, and memory is highest",
        calls=(("setting1", "--n", "2000"),
               ("setting2", "--n", "2000")),
        panel=1,
        accuracy="val_rmse",
    ),
    Workload(
        name="koopman-sweep",
        why="hybrid Koopman generator sweep: per-point design assembly, drift "
            "family calls and closure refits dominate; QP with m=25",
        calls=(("koopman", "--n", "200", "--m", "25"),),
        panel=2,
        accuracy="val_rmse",
    ),
    Workload(
        name="closed-loop",
        why="Lin-Sontag closed loop at 3 of the 7 paper lambda_R: 30 scalar RK4 "
            "trajectories dominate, then Koopman fits and closures; the CLI writes 30 CSVs",
        calls=(("control", "--n", "200", "--m", "25", "--lambda", "0.0001,0.1,100"),),
        panel=1,
        accuracy="max_deviation",
        rescaled=True,
    ),
)}

BENCHMARKED = ("static-large-n", "closed-loop")

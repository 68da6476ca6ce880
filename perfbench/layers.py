"""Per-layer metrics: which program functions the traced run wraps, what it
counts at each of them, and how the counts become the reported metrics.

Layers are the modules of ``src/hybridkernel``. ``install`` wraps every
function in ``TRACED`` in each namespace that binds it; ``raw`` turns one
process's spans and counters into additive numbers; ``merge`` adds those of
several processes; ``finalize`` gives the metrics named in ``PER_LAYER``.
Bytes and flops are computed from array shapes, not measured.
"""

from __future__ import annotations

import importlib
import threading

import numpy as np

from tracer import Tracer

PACKAGE = "hybridkernel"

# (module, attribute, span name). A span name is the metric prefix.
TRACED = (
    ("thermo_vle", "bubble_point", "thermo_vle.bubble_point"),
    ("thermo_vle", "wilson_gex", "thermo_vle.wilson_gex"),
    ("kernels", "gram", "kernels.gram"),
    ("kernels", "cross_gram", "kernels.cross_gram"),
    ("linalg", "cholesky_with_jitter", "linalg.cholesky_with_jitter"),
    ("linalg", "solve_least_squares", "linalg.solve_least_squares"),
    ("simplex_qp", "solve", "simplex_qp.solve"),
    ("simplex_qp", "project_simplex", "simplex_qp.project_simplex"),
    ("hybrid_static", "fit_reference_krr", "hybrid_static.fit_reference_krr"),
    ("hybrid_static", "fit_subspace", "hybrid_static.fit_subspace"),
    ("hybrid_static", "fit_mixture", "hybrid_static.fit_mixture"),
    ("hybrid_static", "rmse", "hybrid_static.rmse"),
    ("koopman", "hybrid_generator_problem", "koopman.hybrid_generator_problem"),
    ("koopman", "fit_hybrid_generator", "koopman.fit_hybrid_generator"),
    ("koopman", "hybrid_prediction_rmse", "koopman.hybrid_prediction_rmse"),
    ("koopman", "closure_fit", "koopman.closure_fit"),
    ("koopman", "cstr_f0_family", "koopman.cstr_f0_family"),
    ("koopman", "MonomialBasis.jacobian", "koopman.jacobian"),
    ("control", "simulate", "control.simulate"),
    ("control", "clf_value", "control.clf_value"),
    ("control", "lin_sontag", "control.lin_sontag"),
    ("experiments", "build_hybrid_model", "experiments.build_hybrid_model"),
    ("experiments", "run_setting1", "experiments.run_setting1"),
    ("experiments", "run_setting2", "experiments.run_setting2"),
    ("experiments", "run_setting3", "experiments.run_setting3"),
    ("experiments", "run_koopman", "experiments.run_koopman"),
    ("experiments", "run_control", "experiments.run_control"),
    ("cli", "main", "cli.main"),
)

DRIVERS = tuple(name for _, attr, name in TRACED if attr.startswith("run_"))
CALLS_ONLY = ("simplex_qp.project_simplex", "koopman.cstr_f0_family", "koopman.jacobian",
              "control.clf_value", "control.lin_sontag")
SELF_ONLY = ("cli.main",) + DRIVERS
UNIQUE = ("thermo_vle.bubble_point", "kernels.gram", "koopman.closure_fit",
          "control.simulate")


def _per_layer() -> list:
    metrics = []
    for _, _, name in TRACED:
        if name not in SELF_ONLY:
            metrics.append((f"{name}.calls", "count", "lower"))
        if name not in CALLS_ONLY:
            metrics.append((f"{name}.self_s", "s", "lower"))
        if name in UNIQUE:
            metrics.append((f"{name}.unique_frac", "frac", "higher"))
    metrics += [
        ("kernels.bytes_computed", "B", "lower"),
        ("linalg.jittered_calls", "count", "lower"),
        ("linalg.flops_computed", "flop", "lower"),
        ("simplex_qp.iterations", "count", "lower"),
        ("simplex_qp.iterations_per_solve", "count", "lower"),
        ("simplex_qp.kkt_max", "residual", "lower"),
        ("simplex_qp.unconverged", "count", "lower"),
        ("control.rk4_steps", "count", "lower"),
        ("experiments.workers", "count", "higher"),
        ("experiments.parallel_util", "frac", "higher"),
        ("cli.bytes_written", "B", "lower"),
        ("cli.files_written", "count", "lower"),
        ("trace_overhead_frac", "frac", "lower"),
    ]
    return metrics


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _per_layer()

# Metrics that depend only on the inputs, so two traced runs of the same code
# must give them exactly. Not exact: times and ratios of times, and the
# bubble-point counts, because pool threads that miss experiments._bubble_T's
# cache at the same moment both compute the same point.
EXACT = tuple(name for name, _, _ in PER_LAYER
              if name.endswith((".calls", ".unique_frac"))
              and not name.startswith("thermo_vle.bubble_point.")
              or name in ("control.rk4_steps", "simplex_qp.iterations",
                          "simplex_qp.iterations_per_solve", "simplex_qp.unconverged",
                          "linalg.jittered_calls", "linalg.flops_computed",
                          "kernels.bytes_computed", "experiments.workers",
                          "cli.files_written"))


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _key_bytes(value) -> bytes:
    return np.ascontiguousarray(np.asarray(value, dtype=float)).tobytes()


class LayerCounters:
    """Counts taken at the traced calls, by hooks that run after each span."""

    def __init__(self):
        self.sums = {"kernels.bytes_computed": 0, "linalg.jittered_calls": 0,
                     "linalg.flops_computed": 0, "simplex_qp.iterations": 0,
                     "simplex_qp.unconverged": 0, "control.rk4_steps": 0}
        self.kkt_max = 0.0
        self.keys = {name: set() for name in UNIQUE}
        self._lock = threading.Lock()

    def _add(self, name: str, amount) -> None:
        with self._lock:
            self.sums[name] += amount

    def _seen(self, name: str, key) -> None:
        with self._lock:
            self.keys[name].add(key)

    def hooks(self) -> dict:
        def bubble_point(args, kwargs, result):
            self._seen("thermo_vle.bubble_point", float(_arg(args, kwargs, 0, "x1")))

        def gram(args, kwargs, result):
            self._add("kernels.bytes_computed", result.nbytes)
            self._seen("kernels.gram", (repr(_arg(args, kwargs, 0, "k")),
                                        _key_bytes(_arg(args, kwargs, 1, "points"))))

        def cross_gram(args, kwargs, result):
            self._add("kernels.bytes_computed", result.nbytes)

        def cholesky(args, kwargs, result):
            n = np.shape(_arg(args, kwargs, 0, "M"))[0]
            self._add("linalg.flops_computed", n ** 3 // 3)
            if result[1] > 0:
                self._add("linalg.jittered_calls", 1)

        def least_squares(args, kwargs, result):
            m, n = np.shape(_arg(args, kwargs, 0, "A"))
            B = _arg(args, kwargs, 1, "B")
            k = 1 if np.ndim(B) == 1 else np.shape(B)[1]
            self._add("linalg.flops_computed", 2 * m * n * (n + k))

        def qp_solve(args, kwargs, result):
            self._add("simplex_qp.iterations", int(result.iterations))
            self._add("simplex_qp.unconverged", 0 if result.converged else 1)
            with self._lock:
                self.kkt_max = max(self.kkt_max, float(result.kkt_residual))

        def closure_fit(args, kwargs, result):
            field = _arg(args, kwargs, 0, "field")
            defaults = tuple(_key_bytes(d) for d in (getattr(field, "__defaults__", None) or ()))
            key = (getattr(field, "__code__", field), defaults,
                   _arg(args, kwargs, 1, "basis").q, repr(args[2:]),
                   repr(sorted((k, v) for k, v in kwargs.items() if k not in ("field", "basis"))))
            self._seen("koopman.closure_fit", key)

        def simulate(args, kwargs, result):
            # the set keeps each controller alive, so identities are never reused
            self._seen("control.simulate", (_arg(args, kwargs, 1, "controller"),
                                            _key_bytes(_arg(args, kwargs, 2, "x0"))))
            self._add("control.rk4_steps", result.times.size - 1)

        return {"thermo_vle.bubble_point": bubble_point, "kernels.gram": gram,
                "kernels.cross_gram": cross_gram, "linalg.cholesky_with_jitter": cholesky,
                "linalg.solve_least_squares": least_squares, "simplex_qp.solve": qp_solve,
                "koopman.closure_fit": closure_fit, "control.simulate": simulate}


def install(tracer: Tracer, counters: LayerCounters) -> None:
    """Wrap every TRACED function of the imported package in all its bindings."""
    hooks = counters.hooks()
    for module, attr, name in TRACED:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        tracer.wrap(owner, leaf, name, hooks.get(name), package=PACKAGE)


def raw(tracer: Tracer, counters: LayerCounters, workers: int) -> dict:
    """Additive numbers of one traced process (merge adds them; maxima are kept)."""
    totals = tracer.by_name()
    sums = dict(counters.sums)
    for name, agg in totals.items():
        sums[f"{name}.calls"] = agg["calls"]
        sums[f"{name}.self_s"] = agg["self_s"]
    for name, keys in counters.keys.items():
        sums[f"{name}.distinct"] = len(keys)
    child, wall = tracer.child_time(DRIVERS)
    sums["experiments.fit_span_s"] = child
    sums["experiments.driver_capacity_s"] = wall * workers
    return {"sums": sums, "max": {"simplex_qp.kkt_max": counters.kkt_max,
                                  "experiments.workers": workers}}


def merge(parts: list) -> dict:
    out = {"sums": {}, "max": {}}
    for part in parts:
        for key, value in part["sums"].items():
            out["sums"][key] = out["sums"].get(key, 0) + value
        for key, value in part["max"].items():
            out["max"][key] = max(out["max"].get(key, value), value)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def finalize(merged: dict, extra: dict) -> dict:
    """Metric name -> value for every PER_LAYER metric; `extra` supplies the
    ones measured outside the trace (cli.* output sizes, trace_overhead_frac)."""
    sums, maxima = merged["sums"], merged["max"]
    values = dict(extra)
    for name, unit, _ in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".unique_frac"):
            fn = name[: -len(".unique_frac")]
            values[name] = _ratio(sums.get(f"{fn}.distinct", 0), sums.get(f"{fn}.calls", 0))
        elif name in maxima:
            values[name] = maxima[name]
        elif name == "simplex_qp.iterations_per_solve":
            values[name] = _ratio(sums["simplex_qp.iterations"], sums["simplex_qp.solve.calls"])
        elif name == "experiments.parallel_util":
            values[name] = _ratio(sums["experiments.fit_span_s"],
                                  sums["experiments.driver_capacity_s"])
        else:
            values[name] = sums[name]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

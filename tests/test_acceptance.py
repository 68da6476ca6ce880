"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion, asserts its stated
tolerances, and emits a single visible PASS line (a failed assertion fails the
test, so a criterion is either PASSED or FAILED in the -v output as well).
"""

import functools
import itertools
import json
import math
import time

import numpy as np
import pytest
import scipy.linalg

import oracles
from hybridkernel import cli, control, experiments, hybrid_static, koopman, thermo_vle
from hybridkernel.kernels import KernelSpec
from hybridkernel.simplex_qp import SimplexQpProblem, solve


@pytest.fixture
def criterion(capfd):
    """Time the criterion body and print one PASS line outside pytest capture."""
    class Reporter:
        def __init__(self):
            self.t0 = time.perf_counter()

        def passed(self, number, message, budget_s):
            elapsed = time.perf_counter() - self.t0
            assert elapsed < budget_s, f"criterion {number} overran {budget_s}s"
            with capfd.disabled():
                print(f"criterion {number:2d} PASS ({elapsed:6.2f}s): {message}",
                      flush=True)

    return Reporter()


def test_criterion_01_azeotrope(criterion):
    az = thermo_vle.find_azeotrope()
    assert az.y == pytest.approx(az.x, abs=1e-6)
    assert abs(az.T - 76.7) <= 0.3
    criterion.passed(1, f"azeotrope at x={az.x:.4f}, T={az.T:.3f} C (76.7 +/- 0.3)",
                     budget_s=1.0)


def test_criterion_02_endpoint_boiling_points(criterion):
    T1, y1 = thermo_vle.bubble_point(1.0)
    T0, y0 = thermo_vle.bubble_point(0.0)
    assert abs(T1 - 78.30) <= 0.02 and y1 == pytest.approx(1.0, abs=1e-9)
    assert abs(T0 - 110.61) <= 0.02 and y0 == 0.0
    criterion.passed(2, f"pure boiling points {T1:.3f} / {T0:.3f} C", budget_s=1.0)


def test_criterion_03_setting1_lambda_trend(criterion):
    rows = experiments.run_setting1(n=50, seed=0)
    train = [r["train_rmse"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(train, train[1:])), \
        "training RMSE not monotone nondecreasing in lambda"
    val = {r["lambda"]: r["val_rmse"] for r in rows}
    assert val[1e-3] < val[1e2]
    criterion.passed(3, f"val RMSE {val[1e-3]:.4f} @ 1e-3 < {val[1e2]:.4f} @ 1e2, "
                        "train RMSE monotone over 13-point grid", budget_s=5.0)


def test_criterion_04_setting2_dominance(criterion):
    result = experiments.run_setting2(n=50, seed=0)
    for ref, mar in zip(result["reference"], result["margules"]):
        assert mar["train_rmse"] < ref["train_rmse"], f"train at lambda={ref['lambda']}"
        assert mar["val_rmse"] < ref["val_rmse"], f"val at lambda={ref['lambda']}"
    criterion.passed(4, "Margules subspace beats reference hybrid in train and val "
                        f"RMSE at all {len(result['reference'])} grid lambdas",
                     budget_s=10.0)


def test_criterion_05_setting3_sample_size_stability(criterion):
    runs = {m: experiments.run_setting3(n=50, seed=0, m=m, lambda_grid=(1.0,))[0]
            for m in (25, 50, 100)}
    vals = [runs[m]["val_rmse"] for m in (25, 50, 100)]
    for a, b in itertools.combinations(vals, 2):
        assert abs(a - b) / max(a, b) < 0.10, "validation RMSE varies >10% with m"
    for m, row in runs.items():
        big = np.flatnonzero(row["weights"] >= 1.0 / m)
        assert big.size < m / 3, f"weights not concentrated at m={m}"
        theta_star = row["weights"] @ row["theta_samples"]
        assert np.all(theta_star < 0.5), f"theta* not bottom-left at m={m}"
    criterion.passed(5, f"val RMSE stable over m=25/50/100 ({vals[0]:.5f}, "
                        f"{vals[1]:.5f}, {vals[2]:.5f}); weights concentrated, "
                        "theta* in the bottom-left quadrant", budget_s=30.0)


def test_criterion_06_wilson_vs_margules(criterion):
    wilson = experiments.run_setting3(n=50, seed=0, m=25, lambda_grid=(1.0,))[0]
    margules = [r for r in experiments.run_setting2(n=50, seed=0,
                                                    lambda_grid=(1.0,))["margules"]][0]
    assert wilson["val_rmse"] > margules["val_rmse"]
    criterion.passed(6, f"at lambda_r=1, Wilson val RMSE {wilson['val_rmse']:.4f} > "
                        f"Margules val RMSE {margules['val_rmse']:.4f}", budget_s=30.0)


@functools.lru_cache(maxsize=None)
def _simplex_lattice(m, n_points=100_000):
    """Dense lattice on the (m-1)-simplex with at least n_points nodes."""
    K = 1
    while math.comb(K + m - 1, m - 1) < n_points:
        K += 1
    pts = []
    for dividers in itertools.combinations(range(K + m - 1), m - 1):
        prev, parts = -1, []
        for d in dividers:
            parts.append(d - prev - 1)
            prev = d
        parts.append(K + m - 2 - prev)
        pts.append(parts)
    return np.asarray(pts, dtype=float) / K


def _eliminate_free_block(problem):
    """c*(b) map from one factorization of the free block."""
    m = problem.m_simplex
    Qbc, Qcc, qc = problem.Q[:m, m:], problem.Q[m:, m:], problem.q_lin[m:]
    if problem.n_free == 0:
        return lambda B: np.zeros((np.atleast_2d(B).shape[0], 0))
    lu = scipy.linalg.lu_factor(Qcc)
    return lambda B: scipy.linalg.lu_solve(
        lu, -(Qbc.T @ np.atleast_2d(B).T + 0.5 * qc[:, None])).T


def _support_enumeration_minimum(problem, solve_c):
    """Exact minimum by enumerating active sets of the simplex constraint."""
    m = problem.m_simplex
    best = np.inf
    for r in range(1, m + 1):
        for support in itertools.combinations(range(m), r):
            # KKT on the support: 2 S_FF b_F + s_F + mu * 1 = 0, sum b_F = 1,
            # where S, s define the reduced objective after free elimination.
            idx = list(support)

            def reduced(bF):
                b = np.zeros(m)
                b[idx] = bF
                c = solve_c(b[None])[0]
                return problem.objective(b, c)

            k = len(idx)
            # Quadratic in bF: recover S_F, s_F, const by evaluation.
            const = reduced(np.zeros(k))
            lin = np.array([reduced(np.eye(k)[i]) for i in range(k)])
            SF = np.zeros((k, k))
            for i in range(k):
                for j in range(i, k):
                    val = reduced(np.eye(k)[i] + np.eye(k)[j])
                    SF[i, j] = SF[j, i] = 0.5 * (val - lin[i] - lin[j] + const)
            sF = lin - np.diag(SF) - const
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * SF
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([-sF, [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            bF = sol[:k]
            if np.all(bF >= -1e-9):
                best = min(best, reduced(np.clip(bF, 0.0, None)))
    return best


def test_criterion_07_qp_oracle_equivalence(criterion):
    rng = np.random.default_rng(42)
    for trial in range(50):
        m = int(rng.integers(2, 9))
        n_free = int(rng.integers(0, 6))
        dim = m + n_free
        A = rng.standard_normal((dim + 2, dim))
        problem = SimplexQpProblem(Q=A.T @ A + 0.1 * np.eye(dim),
                                   q_lin=rng.standard_normal(dim),
                                   m_simplex=m, n_free=n_free)
        sol = solve(problem)
        solve_c = _eliminate_free_block(problem)
        # brute force: dense simplex lattice with exact free-block elimination
        B = _simplex_lattice(m)
        C = solve_c(B)
        Z = np.hstack([B, C])
        lattice_min = float(np.min(np.einsum("ij,jk,ik->i", Z, problem.Q, Z)
                                   + Z @ problem.q_lin))
        assert sol.objective <= lattice_min + 1e-6, f"trial {trial}"
        # exact refinement of the lattice search: active-set enumeration
        exact_min = _support_enumeration_minimum(problem, solve_c)
        assert abs(sol.objective - exact_min) <= 1e-6, f"trial {trial}"
    criterion.passed(7, "50 random QPs match brute-force simplex search to 1e-6",
                     budget_s=60.0)


def test_criterion_08_koopman_recoverability(criterion):
    basis = koopman.MonomialBasis(q=3)
    thetas = experiments.sample_thetas(25, 1000)
    jbar = int(np.argmax(thetas.sum(axis=1)))
    theta_bar = thetas[jbar]
    sample = koopman.make_drift_sample(
        200, seed=0, field=lambda x: koopman.cstr_f0_family(x, theta_bar))
    design = koopman.generator_design(sample, koopman.cstr_f0_family, thetas, basis)
    b, R, _ = koopman.fit_hybrid_generator(design, lambda_b=1e-8, lambda_R=1e2)
    frob = float(np.linalg.norm(R, "fro"))
    rmse = koopman.hybrid_prediction_rmse(design, b, R)
    assert frob < 1e-6
    assert rmse < 1e-8
    criterion.passed(8, f"planted drift recovered: |R|_F={frob:.1e}, "
                        f"RMSE={rmse:.1e}, b[planted]={b[jbar]:.6f}", budget_s=10.0)


def test_criterion_09_koopman_lambda_trends(criterion):
    rows = experiments.run_koopman(n=200, seed=0, m=25)
    train = [r["train_rmse"] for r in rows]
    val = [r["val_rmse"] for r in rows]
    frob = [r["frob_R"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(train, train[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(val, val[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(frob, frob[1:]))
    criterion.passed(9, f"over {len(rows)} lambda_R values: train/val RMSE "
                        "nondecreasing, |R|_F nonincreasing", budget_s=60.0)


def test_criterion_10_f1_closure_exactness(criterion):
    basis = koopman.MonomialBasis(q=3)
    beta, gamma = koopman.closure_fit(koopman.cstr_f1, basis, affine=True)
    resid = oracles.closure_residual(koopman.cstr_f1, basis, beta, gamma)
    assert resid < 1e-10
    criterion.passed(10, f"input-channel affine closure residual {resid:.1e}",
                     budget_s=1.0)


def test_criterion_11_control_overlap(criterion):
    rows = experiments.run_control(seed=0, n=200, m=25)
    worst = max(r["max_deviation"] for r in rows)
    assert worst < 0.05
    assert all(r["v_monotone_truth"] and r["v_monotone_model"] for r in rows)
    criterion.passed(11, f"{len(rows)} (lambda_R, x0) runs: max trajectory "
                         f"deviation {worst:.4f} < 0.05, V monotone under both "
                         "controllers", budget_s=60.0)


def test_criterion_12_numerical_hygiene(criterion, tmp_path):
    # basis Jacobian vs central finite differences
    basis = koopman.MonomialBasis(q=3)
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(-0.25, 0.25, size=2)
        fd = np.column_stack([(basis.eval(x + h * e) - basis.eval(x - h * e)) / (2 * h)
                              for e in np.eye(2)])
        assert np.max(np.abs(basis.jacobian(x) - fd)) < 1e-6

    # Gibbs-Duhem identity by central differences
    x1, T, hh = 0.5, 350.0, 1e-5
    lg = lambda x: np.log(thermo_vle.uniquac_gamma(x, T))
    d = (np.array(lg(x1 + hh)) - np.array(lg(x1 - hh))) / (2 * hh)
    gd = abs(x1 * d[0] + (1 - x1) * d[1])
    assert gd < 1e-6

    # RK4 order: halving dt cuts the error by about 16x on a linear system
    exact = np.exp(-1.0) * np.ones(2)
    errs = [np.linalg.norm(control.simulate(lambda x, u: -np.asarray(x),
                                            lambda x: 0.0, np.ones(2), dt,
                                            1.0).states[-1] - exact)
            for dt in (0.1, 0.05)]
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0

    # byte-identical rerun determinism per seed
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["vle-data", "--n", "20", "--seed", "7",
                         "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "data.csv").read_bytes() == (outs[1] / "data.csv").read_bytes()
    m0 = json.loads((outs[0] / "manifest.json").read_text())
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    for m in (m0, m1):  # only the timestamp and target directory may differ
        m.pop("generated_at")
        m["config"].pop("out")
    assert m0 == m1

    criterion.passed(12, f"Jacobian FD ok, Gibbs-Duhem {gd:.1e}, RK4 ratio "
                         f"{ratio:.1f}, reruns byte-identical", budget_s=30.0)

"""Metamorphic tests: each setting is fitted twice, on its training rows and on
the same rows permuted, and every saved parameter of the two fits must agree
to 1e-9. A permutation changes only the order in which sums are taken, so a
parameter that moves by more is set by rounding, not by the data.

The bounds are max-norm relative for vectors and matrices (the kernel
coefficients, the Margules theta* and R) and absolute for parameters on the
unit square or the simplex (the mixture weights, the setting3 theta* and b).
"""

import numpy as np
import pytest

from hybridkernel import experiments, hybrid_static as hs, koopman, thermo_vle
from hybridkernel.hybrid_static import Dataset
from hybridkernel.kernels import KernelSpec

SEEDS = (0, 1)
N = 50
TOL = 1e-9
KERNEL = KernelSpec(gamma=experiments.DEFAULT_GAMMA_X)


def permutation(size: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed + 500).permutation(size)


def permuted(data: Dataset, perm: np.ndarray) -> Dataset:
    return Dataset(inputs=data.inputs[perm], targets=data.targets[perm])


def relative(new, old) -> float:
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def absolute(new, old) -> float:
    return float(np.max(np.abs(new - old)))


def static_fit_pairs(dataset, features, fit, seed, joint=False):
    """(model, model on permuted rows, permutation) for every lambda of the
    grid; fit(design, grid) returns one model per lambda."""
    data = dataset(N, seed)
    perm = permutation(data.size, seed)
    designs = [hs.design(d, features, KERNEL, joint=joint) for d in (data, permuted(data, perm))]
    fits = [fit(design, experiments.DEFAULT_LAMBDA_GRID) for design in designs]
    assert all(len(models) == len(experiments.DEFAULT_LAMBDA_GRID) for models in fits)
    return [(old, new, perm) for old, new in zip(*fits)]


def subspace_fit(design, grid):
    return [hs.fit_subspace(design, lambda_theta=experiments.DEFAULT_LAMBDA_THETA, lambda_r=lam)
            for lam in grid]


def margules_fit_pairs(seed):
    return static_fit_pairs(experiments.gex_dataset, thermo_vle.margules_features,
                            subspace_fit, seed, joint=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_setting1_kernel_coefficients(seed):
    pairs = static_fit_pairs(experiments.xy_dataset, experiments.relative_volatility_reference,
                             hs.fit_reference_krr, seed)
    assert max(relative(new.coeffs, old.coeffs[perm]) for old, new, perm in pairs) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_setting2_margules_theta_star(seed):
    pairs = margules_fit_pairs(seed)
    assert max(relative(new.weights, old.weights) for old, new, _ in pairs) <= TOL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the jittered normal equations of "
                   "the joint fit move the Margules kernel coefficients by up to 4 %")
@pytest.mark.parametrize("seed", SEEDS)
def test_setting2_margules_kernel_coefficients(seed):
    pairs = margules_fit_pairs(seed)
    assert max(relative(new.coeffs, old.coeffs[perm]) for old, new, perm in pairs) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_setting3_mixture(seed):
    thetas = experiments.sample_thetas(25, experiments.seeds("setting3", seed)["theta_seed"])
    pairs = static_fit_pairs(experiments.gex_dataset,
                             lambda x: experiments.wilson_family(x, thetas),
                             hs.fit_mixture, seed)
    for old, new, perm in pairs:
        assert absolute(new.weights, old.weights) <= TOL
        assert absolute(hs.effective_parameter(new.weights, thetas),
                        hs.effective_parameter(old.weights, thetas)) <= TOL
        assert relative(new.coeffs, old.coeffs[perm]) <= TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_koopman_generator(seed):
    basis = koopman.MonomialBasis(q=experiments.DEFAULT_Q)
    thetas = experiments.sample_thetas(25, experiments.seeds("koopman", seed)["theta_seed"])
    sample = koopman.make_drift_sample(200, seed)
    perm = permutation(sample.size, seed)
    shuffled = koopman.DriftSample(states=sample.states[perm],
                                   drift_velocities=sample.drift_velocities[perm])
    designs = [koopman.generator_design(s, koopman.cstr_f0_family, thetas, basis)
               for s in (sample, shuffled)]
    for lam in experiments.DEFAULT_LAMBDA_R_GRID:
        (b, R, _), (b_p, R_p, _) = (
            koopman.fit_hybrid_generator(d, lambda_b=experiments.DEFAULT_LAMBDA_B, lambda_R=lam)
            for d in designs)
        assert absolute(b_p, b) <= TOL
        assert relative(R_p, R) <= TOL

"""Ethanol-toluene VLE ground truth (UNIQUAC + Antoine + ideal vapor) and the
interpretable model families used in the static case studies.

One system at 1 atm: every function reads the module constants below, and
only excess_gibbs_from_txy takes P and the Antoine constants as arguments.

Conventions:
  - temperatures are degrees Celsius at the API surface unless a function
    says Kelvin; pressure in mmHg.
  - component 1 = ethanol, component 2 = toluene.
  - Wilson interaction energies A12, A21 are in cal/mol and enter as
    exp(-A/(R*T)) with R = 1.987 cal/(mol K) and T in Kelvin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, NoBracket

CELSIUS_TO_KELVIN = 273.15
R_CAL = 1.987  # cal/(mol K)
T_WINDOW_C = (60.0, 115.0)  # brackets both pure boiling points at 1 atm
ATM_MMHG = 760.0


@dataclass(frozen=True)
class AntoineConstants:
    """log10(Psat/mmHg) = A - B/(T/degC + C)."""

    A: float
    B: float
    C: float


ETHANOL_ANTOINE = AntoineConstants(8.11220, 1592.864, 226.184)
TOLUENE_ANTOINE = AntoineConstants(6.95087, 1342.31, 219.187)


@dataclass(frozen=True)
class UniquacParams:
    r1: float
    r2: float
    q1: float
    q2: float
    a12: float  # Kelvin
    a21: float  # Kelvin


ETHANOL_TOLUENE_UNIQUAC = UniquacParams(
    r1=2.1055, r2=3.9228, q1=1.972, q2=2.968, a12=-76.1573, a21=438.005
)


@dataclass(frozen=True)
class VlePoint:
    x: float  # liquid ethanol mole fraction
    y: float  # vapor ethanol mole fraction
    T: float  # degrees Celsius


ETHANOL_MOLAR_VOLUME = 58.7  # mL/mol
TOLUENE_MOLAR_VOLUME = 106.8  # mL/mol


@dataclass(frozen=True)
class WilsonParams:
    """Wilson model with parameters encoded on [0, 1]^2 via A = 10^(4 theta - 2)."""

    theta: tuple

    @property
    def A12(self) -> float:
        return 10.0 ** (4.0 * self.theta[0] - 2.0)

    @property
    def A21(self) -> float:
        return 10.0 ** (4.0 * self.theta[1] - 2.0)


def antoine_psat(c: AntoineConstants, T: float) -> float:
    """Saturated vapor pressure in mmHg at T degrees Celsius."""
    denom = T + c.C
    if denom <= 0:
        raise DomainError(f"Antoine denominator T + C = {denom} <= 0")
    return 10.0 ** (c.A - c.B / denom)


def uniquac_gamma(x1: float, T: float) -> tuple[float, float]:
    """Activity coefficients (gamma1, gamma2) at liquid fraction x1, T in Kelvin.

    Evaluated in ratio form (phi_j/x_j etc.) so the pure-component endpoints
    x1 in {0, 1} return the correct limits without 0/0.
    """
    if not (0.0 <= x1 <= 1.0):
        raise DomainError(f"x1 = {x1} outside [0, 1]")
    if T <= 0:
        raise DomainError("temperature must be positive (Kelvin)")
    return _uniquac_gamma_at(_uniquac_composition_terms(x1), T)


def _uniquac_composition_terms(x1: float) -> tuple:
    """The T-independent part of uniquac_gamma: the area fractions (th1, th2)
    and the combinatorial part of each ln gamma."""
    p = ETHANOL_TOLUENE_UNIQUAC
    x2 = 1.0 - x1
    sr = x1 * p.r1 + x2 * p.r2
    sq = x1 * p.q1 + x2 * p.q2
    # phi_j / x_j and theta_j / x_j are well defined at the endpoints
    phi1_x = p.r1 / sr
    phi2_x = p.r2 / sr
    th1 = x1 * p.q1 / sq
    th2 = x2 * p.q2 / sq
    phi1_th = (p.r1 * sq) / (p.q1 * sr)
    phi2_th = (p.r2 * sq) / (p.q2 * sr)
    comb1 = np.log(phi1_x) + 1.0 - phi1_x - 5.0 * p.q1 * (np.log(phi1_th) + 1.0 - phi1_th)
    comb2 = np.log(phi2_x) + 1.0 - phi2_x - 5.0 * p.q2 * (np.log(phi2_th) + 1.0 - phi2_th)
    return th1, th2, float(comb1), float(comb2)


def _uniquac_gamma_at(terms: tuple, T: float) -> tuple[float, float]:
    """uniquac_gamma from the composition terms and T in Kelvin: numpy's exp and
    log (math's differ in the last bit), the rest on Python floats (same rounding)."""
    p = ETHANOL_TOLUENE_UNIQUAC
    th1, th2, comb1, comb2 = terms
    tau12 = float(np.exp(-p.a12 / T))
    tau21 = float(np.exp(-p.a21 / T))
    d1 = th1 + th2 * tau21
    d2 = th1 * tau12 + th2
    ln_g1 = comb1 + p.q1 * (1.0 - float(np.log(d1)) - th1 / d1 - th2 * tau12 / d2)
    ln_g2 = comb2 + p.q2 * (1.0 - float(np.log(d2)) - th1 * tau21 / d1 - th2 / d2)
    return float(np.exp(ln_g1)), float(np.exp(ln_g2))


def bubble_point(x1: float) -> tuple[float, float]:
    """Bubble temperature (degC) and vapor fraction y1 at 1 atm from modified
    Raoult's law.

    Bisection on the fixed window T_WINDOW_C to |dT| < 1e-8 degC.
    """
    if not (0.0 <= x1 <= 1.0):
        raise DomainError(f"x1 = {x1} outside [0, 1]")
    x2 = 1.0 - x1
    terms = _uniquac_composition_terms(x1)

    def pressure_excess(T_c: float) -> float:
        g1, g2 = _uniquac_gamma_at(terms, T_c + CELSIUS_TO_KELVIN)
        return (x1 * g1 * antoine_psat(ETHANOL_ANTOINE, T_c)
                + x2 * g2 * antoine_psat(TOLUENE_ANTOINE, T_c) - ATM_MMHG)

    lo, hi = T_WINDOW_C
    f_lo, f_hi = pressure_excess(lo), pressure_excess(hi)
    if f_lo * f_hi > 0:
        raise NoBracket(f"pressure equation does not change sign on {T_WINDOW_C}")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        f_mid = pressure_excess(mid)
        if f_mid * f_lo <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    T_c = 0.5 * (lo + hi)
    g1, _ = _uniquac_gamma_at(terms, T_c + CELSIUS_TO_KELVIN)
    y1 = x1 * g1 * antoine_psat(ETHANOL_ANTOINE, T_c) / ATM_MMHG
    return T_c, float(np.clip(y1, 0.0, 1.0))


def find_azeotrope() -> VlePoint:
    """Interior composition where y(x) = x at 1 atm, with its boiling temperature."""

    def gap(x: float) -> float:
        return bubble_point(x)[1] - x

    lo, hi = 0.01, 0.99
    if gap(lo) * gap(hi) > 0:
        raise NoBracket("y(x) - x does not change sign on (0.01, 0.99)")
    x_az = brentq(gap, lo, hi, xtol=1e-10)
    T_az, y_az = bubble_point(x_az)
    return VlePoint(x=float(x_az), y=float(y_az), T=float(T_az))


def vle_compositions(n: int, seed: int = 0) -> np.ndarray:
    """n liquid fractions uniform on [0.01, 0.99], deterministic per seed."""
    if n < 1:
        raise DomainError("need n >= 1")
    return np.random.default_rng(seed).uniform(0.01, 0.99, size=n)


def excess_gibbs_from_txy(
    pt: VlePoint,
    P: float = ATM_MMHG,
    antoine1: AntoineConstants = ETHANOL_ANTOINE,
    antoine2: AntoineConstants = TOLUENE_ANTOINE,
) -> float:
    """Gibbs-energy target x ln(Py/Psat1) + (1-x) ln(P(1-y)/Psat2) at the point's T.

    Under modified Raoult's law with ideal vapor this equals
    x ln(x gamma1) + (1-x) ln((1-x) gamma2), i.e. the excess part plus the
    ideal-mixing term; it vanishes at both composition endpoints.
    """
    if not (0.0 < pt.x < 1.0) or not (0.0 < pt.y < 1.0):
        raise DomainError("x and y must lie strictly inside (0, 1)")
    p1 = antoine_psat(antoine1, pt.T)
    p2 = antoine_psat(antoine2, pt.T)
    return float(pt.x * np.log(P * pt.y / p1) + (1.0 - pt.x) * np.log(P * (1.0 - pt.y) / p2))


def rel_volatility_model(alpha: float, x) -> np.ndarray | float:
    """Constant relative-volatility vapor fraction y = ax / (ax + (1-x))."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    x = np.asarray(x, dtype=float)
    y = alpha * x / (alpha * x + (1.0 - x))
    return float(y) if y.ndim == 0 else y


REL_VOLATILITY_ALPHA = 2.973  # mean Psat ratio between the pure boiling points


def margules_features(x) -> np.ndarray:
    """Two-parameter Margules features (x^2(1-x), x(1-x)^2)."""
    x = np.asarray(x, dtype=float)
    return np.stack([x * x * (1.0 - x), x * (1.0 - x) ** 2], axis=-1)


def wilson_lambdas(w: WilsonParams, T: float) -> tuple[float, float]:
    """Wilson Lambda coefficients (Lambda12, Lambda21) at T in Kelvin."""
    if T <= 0:
        raise DomainError("temperature must be positive (Kelvin)")
    lam12 = (TOLUENE_MOLAR_VOLUME / ETHANOL_MOLAR_VOLUME) * np.exp(-w.A12 / (R_CAL * T))
    lam21 = (ETHANOL_MOLAR_VOLUME / TOLUENE_MOLAR_VOLUME) * np.exp(-w.A21 / (R_CAL * T))
    return float(lam12), float(lam21)


def wilson_gex(w: WilsonParams, x1: float, T: float) -> float:
    """Wilson excess Gibbs energy / RT at liquid fraction x1, T in Kelvin."""
    return wilson_gex_from_lambdas(*wilson_lambdas(w, T), x1)


def wilson_gex_from_lambdas(lam12: float, lam21: float, x1: float) -> float:
    """Wilson excess Gibbs energy / RT with the Lambda coefficients supplied
    directly; 0 at the pure components x1 = 0 and x1 = 1."""
    if not (0.0 <= x1 <= 1.0):
        raise DomainError(f"x1 = {x1} outside [0, 1]")
    if x1 == 0.0 or x1 == 1.0:
        return 0.0
    x2 = 1.0 - x1
    return float(-x1 * np.log(x1 + x2 * lam12) - x2 * np.log(x2 + x1 * lam21))

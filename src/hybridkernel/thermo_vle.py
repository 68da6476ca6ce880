"""Ethanol-toluene VLE ground truth (UNIQUAC + Antoine + ideal vapor) and the
interpretable model families used in the static case studies.

One system at 1 atm: every function reads the module constants below; only
antoine_psat and excess_gibbs_from_txy take Antoine constants (the latter P too).

Conventions:
  - temperatures are degrees Celsius at the API surface unless a function
    says Kelvin; pressure in mmHg.
  - component 1 = ethanol, component 2 = toluene.
  - Wilson interaction energies A12, A21 are in cal/mol and enter as
    exp(-A/(R*T)) with R = 1.987 cal/(mol K) and T in Kelvin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

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


ETHANOL_MOLAR_VOLUME = 58.7  # mL/mol
TOLUENE_MOLAR_VOLUME = 106.8  # mL/mol


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
    g1, g2 = _uniquac_gamma_at(_uniquac_composition_terms(x1), T)
    return float(g1), float(g2)


def _uniquac_composition_terms(x1) -> tuple:
    """The T-independent part of uniquac_gamma at a liquid fraction x1 or an
    array of them: the area fractions (th1, th2) and the combinatorial part of
    each ln gamma."""
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
    return th1, th2, comb1, comb2


def _uniquac_gamma_at(terms: tuple, T):
    """uniquac_gamma from the composition terms and T in Kelvin, a float or an
    array of T's shape: numpy's exp and log (math's differ in the last bit)
    and IEEE arithmetic, so an array gives each element's scalar bits."""
    p = ETHANOL_TOLUENE_UNIQUAC
    th1, th2, comb1, comb2 = terms
    tau12 = np.exp(-p.a12 / T)
    tau21 = np.exp(-p.a21 / T)
    d1 = th1 + th2 * tau21
    d2 = th1 * tau12 + th2
    ln_g1 = comb1 + p.q1 * (1.0 - np.log(d1) - th1 / d1 - th2 * tau12 / d2)
    ln_g2 = comb2 + p.q2 * (1.0 - np.log(d2) - th1 * tau21 / d1 - th2 / d2)
    return np.exp(ln_g1), np.exp(ln_g2)


def bubble_point(x1: float, root: float | None = None) -> tuple[float, float]:
    """Bubble temperature (degC) and vapor fraction y1 at 1 atm from modified
    Raoult's law.

    The temperature is the bisection of the fixed window T_WINDOW_C to
    |dT| < 1e-8 degC, bit for bit. It is replayed from x1's root, as
    bubble_roots locates it: only the midpoints that lie within 1e-10 degC of
    the root are evaluated (see _bubble_temperature). A caller that solves
    many compositions passes each one's root from one bubble_roots call;
    without a root, the search runs on x1 alone.
    """
    if not (0.0 <= x1 <= 1.0):
        raise DomainError(f"x1 = {x1} outside [0, 1]")
    if root is None:
        (root,) = bubble_roots([x1]).tolist()
    terms = _uniquac_composition_terms(x1)
    T_c = _bubble_temperature(lambda T: _pressure_excess(x1, terms, T), root)
    g1, _ = _uniquac_gamma_at(terms, T_c + CELSIUS_TO_KELVIN)
    y1 = x1 * g1 * antoine_psat(ETHANOL_ANTOINE, T_c) / ATM_MMHG
    return T_c, float(min(max(y1, 0.0), 1.0))


def _pressure_excess(x1, terms: tuple, T_c):
    """Bubble pressure minus 1 atm (mmHg) at liquid fraction x1 and T_c degC,
    from x1's composition terms: floats, or arrays of one shape whose every
    element has the bits of its float call."""
    g1, g2 = _uniquac_gamma_at(terms, T_c + CELSIUS_TO_KELVIN)
    return (x1 * g1 * _antoine_psat_each(ETHANOL_ANTOINE, T_c)
            + (1.0 - x1) * g2 * _antoine_psat_each(TOLUENE_ANTOINE, T_c) - ATM_MMHG)


def _antoine_psat_each(c: AntoineConstants, T):
    """antoine_psat at a T or at every T of an array, with its bits: np.float_power
    is libm's pow per element, like Python's ``**`` on floats."""
    denom = np.asarray(T + c.C)
    bad = denom[denom <= 0]
    if bad.size:
        raise DomainError(f"Antoine denominator T + C = {bad[0]} <= 0")
    return np.float_power(10.0, c.A - c.B / denom)


def bubble_roots(x1) -> np.ndarray:
    """The bubble temperature (degC) of each liquid fraction in the 1-D x1, to
    a computed-sign bracket narrower than 1e-11 degC: one Illinois search over
    all of them (see _illinois_roots). NaN where the search fails; the
    bisection then decides by itself."""
    x1 = np.asarray(x1, dtype=float)
    bad = x1[~((0.0 <= x1) & (x1 <= 1.0))]
    if bad.size:
        raise DomainError(f"x1 = {bad[0]} outside [0, 1]")
    terms = _uniquac_composition_terms(x1)
    return _illinois_roots(
        lambda T, i: _pressure_excess(x1[i], tuple(t[i] for t in terms), T), x1.size)


def _bubble_temperature(pressure_excess, root: float) -> float:
    """The bisection of T_WINDOW_C to |dT| < 1e-8 degC on pressure_excess, bit
    for bit, with the midpoints far from the located root decided unevaluated.
    A NaN root evaluates the window ends, raises NoBracket unless they differ
    in sign, and evaluates every midpoint: the plain bisection."""
    lo, hi = T_WINDOW_C
    # Why a skipped midpoint goes where the bisection would send it: on the
    # window the computed pressure excess increases in T, with a slope of at
    # least 5.5 mmHg/K (its least value, at x1 = 0 and T = 60 degC). The root
    # search ends on a computed-sign bracket narrower than 1e-11 degC, or on
    # an excess of exactly 0, so a midpoint more than 1e-10 below (above) the
    # root has an excess below -5e-10 (above 5e-10) mmHg, far beyond its
    # rounding error of about 1e-12 mmHg. Only midpoints inside that band are
    # evaluated. A located root implies f(lo) < 0 <= f(hi), both finite, so
    # the window ends are not evaluated and -1 stands in for f(lo): the
    # bisection reads only f_lo's sign, through f_mid * f_lo, and a computed
    # excess is 0 or at least 2**-44 mmHg in size, so no such product
    # underflows. A NaN root fails every comparison, so every midpoint is
    # evaluated.
    if math.isnan(root):
        f_lo, f_hi = pressure_excess(lo), pressure_excess(hi)
        if f_lo * f_hi > 0:
            raise NoBracket(f"pressure equation does not change sign on {T_WINDOW_C}")
    else:
        f_lo = -1.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if mid < root - 1e-10:
            lo = mid  # f_lo keeps a negative value: only its sign is read
        elif mid > root + 1e-10:
            hi = mid
        else:
            f_mid = pressure_excess(mid)
            if f_mid * f_lo <= 0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _illinois_roots(excess, n: int) -> np.ndarray:
    """Roots in T_WINDOW_C of n functions at once, by Illinois regula falsi
    (Dowell & Jarratt 1971) with an active mask. excess(T, i) evaluates the
    functions of the indices i at the temperatures T, two arrays of one length.

    Each root is the midpoint of a computed-sign bracket narrower than 1e-11,
    or a point where its function is 0. It is NaN unless f(lo) < 0 <= f(hi),
    both finite, and NaN if 100 steps do not get there or a value of f is not
    finite.
    """
    lo, hi = T_WINDOW_C
    i = np.arange(n)
    # rows: a, b, f(a), f(b), and the side of the last step (-1 low, 1 high)
    state = np.stack([np.full(n, lo), np.full(n, hi), excess(np.full(n, lo), i),
                      excess(np.full(n, hi), i), np.zeros(n)])
    roots = np.full(n, np.nan)
    fa, fb = state[2], state[3]
    active = (fa < 0) & (0 <= fb) & np.isfinite(fa) & np.isfinite(fb)
    for _ in range(100):
        a, b = state[0], state[1]
        narrow = b - a < 1e-11
        roots[i[active & narrow]] = 0.5 * (a + b)[active & narrow]
        active &= ~narrow
        state, i = state[:, active], i[active]
        if not i.size:
            break
        a, b, fa, fb, side = state
        # at least 5e-12 inside the bracket, so a last step next to an end
        # closes it instead of moving that end by a rounding error
        with np.errstate(all="ignore"):  # huge values: a NaN c, whose f(c) is rejected
            c = np.minimum(np.maximum(b - fb * (b - a) / (fb - fa), a + 5e-12), b - 5e-12)
        fc = excess(c, i)
        low, zero = fc < 0, fc == 0
        fb = np.where(low & (side < 0), 0.5 * fb, fb)
        fa = np.where(~low & (side > 0), 0.5 * fa, fa)
        state = np.stack([np.where(low, c, a), np.where(low, b, c),
                          np.where(low, fc, fa), np.where(low, fb, fc),
                          np.where(low, -1.0, 1.0)])
        roots[i[zero]] = c[zero]
        active = np.isfinite(fc) & ~zero
    return roots


def vle_compositions(n: int, seed: int = 0) -> np.ndarray:
    """n liquid fractions uniform on [0.01, 0.99], deterministic per seed."""
    if n < 1:
        raise DomainError("need n >= 1")
    return default_rng(seed).uniform(0.01, 0.99, size=n)


def excess_gibbs_from_txy(x, y, T, P: float = ATM_MMHG,
                          antoine1: AntoineConstants = ETHANOL_ANTOINE,
                          antoine2: AntoineConstants = TOLUENE_ANTOINE):
    """Gibbs-energy target x ln(Py/Psat1) + (1-x) ln(P(1-y)/Psat2) at liquid and
    vapor fractions x, y and T degC that broadcast; a float if all are scalars.

    Under modified Raoult's law with ideal vapor this equals
    x ln(x gamma1) + (1-x) ln((1-x) gamma2), i.e. the excess part plus the
    ideal-mixing term; it vanishes at both composition endpoints. The vapor
    pressures have antoine_psat's bits, one array call per component.
    """
    x, y, T = (np.asarray(v, dtype=float) for v in (x, y, T))
    p1, p2 = (_antoine_psat_each(c, T) for c in (antoine1, antoine2))
    with np.errstate(over="ignore"):  # a y of huge magnitude gives +-inf, rejected below
        r1, r2 = P * y / p1, P * (1.0 - y) / p2  # with P > 0: > 0 iff 0 < y < 1, short of underflow
    if not np.all((0.0 < x) & (x < 1.0) & (r1 > 0.0) & (r2 > 0.0)):
        raise DomainError("x and y must lie inside (0, 1), y where P y / Psat1 > 0")
    g = x * np.log(r1) + (1.0 - x) * np.log(r2)
    return float(g) if g.ndim == 0 else g


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


def wilson_gex(thetas, x1, T) -> np.ndarray:
    """Wilson excess Gibbs energy / RT of every parameter pair at every liquid
    fraction, T in Kelvin: for (m, 2) thetas and x1, T that broadcast to shape
    s, an array of shape s + (m,). It is 0 at the pure components x1 = 0 and 1.

    A pair theta on [0, 1]^2 encodes A = 10^(4 theta - 2) cal/mol. The power
    is np.float_power, libm's pow per element like Python's ``**`` on floats;
    the array ``**`` (numpy's SIMD pow) differs in the last bit.
    """
    A = np.float_power(10.0, 4.0 * np.asarray(thetas, dtype=float) - 2.0)
    x1 = np.asarray(x1, dtype=float)[..., None]
    T = np.asarray(T, dtype=float)[..., None]
    bad = x1[~((0.0 <= x1) & (x1 <= 1.0))]
    if bad.size:
        raise DomainError(f"x1 = {bad[0]} outside [0, 1]")
    if np.any(T <= 0):
        raise DomainError("temperature must be positive (Kelvin)")
    lam12 = (TOLUENE_MOLAR_VOLUME / ETHANOL_MOLAR_VOLUME) * np.exp(-A[:, 0] / (R_CAL * T))
    lam21 = (ETHANOL_MOLAR_VOLUME / TOLUENE_MOLAR_VOLUME) * np.exp(-A[:, 1] / (R_CAL * T))
    x2 = 1.0 - x1
    # at x1 in {0, 1} a Lambda that underflowed to 0 gives log(0); those
    # entries are replaced by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        gex = -x1 * np.log(x1 + x2 * lam12) - x2 * np.log(x2 + x1 * lam21)
    return np.where((x1 == 0.0) | (x1 == 1.0), 0.0, gex)

"""Closed-form algebra of traveling bore profiles.

The model is a scaled Boussinesq system with a bulk viscous term (depth and
gravity normalized to 1, so speeds are Froude numbers):

    eta_t + u_x + (eta u)_x = 0
    u_t + eta_x + u u_x - delta u_xxt - epsilon u_xx = 0

Steady profiles u(x - c t), eta(x - c t) with supercritical speed c > 1
satisfy eta = u / (c - u) and a planar autonomous system

    u' = v / (delta c)
    v' = c u + u / (u - c) - u**2 / 2 + epsilon v / (delta c)

whose orbit from the upstream state (u_tail, 0) to the rest state (0, 0)
is the bore.  Everything exact about that reduction lives here: both
equilibria, the linearizations at each end, the oscillatory/regularized
criterion, the potential well and Lyapunov function, the closed-form
dissipation budget, and the speed-amplitude relations.  No integration
happens in this module.

Formulas are exact for c > 1; the test suite exercises the solitary crest
for c in (1, 20] and profiles up to c = 10.5.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .errors import RootFindError

_SOLITARY_MAX_ITER = 120
# Below this crest elevation speed_from_amplitude sums the series of
# ((1 + eta) log1p(eta) - eta) / eta**2; 48 terms reach rounding at 0.5.
_SMALL_ETA = 0.5
_SMALL_ETA_TERMS = 48


def _check_tail_gap(c: float) -> None:
    """Raise ValueError naming c unless the tail gap sqrt(c**2 + 8) - c is
    positive and finite: twice c - u_tail, which the closed forms divide by
    or take the log of.  It rounds to 0 from c ~ 1e9 and overflows past
    c ~ 1e154.
    """
    if not 0.0 < math.sqrt(c * c + 8.0) - c < math.inf:
        raise ValueError(f"wave speed c = {c} leaves no tail gap c - u_tail in a double")


@dataclass(frozen=True)
class WaveParams:
    """Bundle (c, delta, epsilon) for one traveling-wave problem.

    c        wave speed in units of the linear long-wave speed; must be > 1
    delta    dispersion coefficient (scaled squared depth / 3); must be > 0
    epsilon  bulk dissipation coefficient; must be >= 0
    All three must be finite, and the tail gap c - u_tail =
    (sqrt(c**2 + 8) - c) / 2, which eta_tail and restoring(c) divide by,
    must be positive and finite (_check_tail_gap, which the closed forms
    of c alone call too).
    """

    c: float
    delta: float
    epsilon: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.c, self.delta, self.epsilon))):
            raise ValueError(
                f"c, delta and epsilon must be finite, got "
                f"({self.c}, {self.delta}, {self.epsilon})"
            )
        if not (self.c > 1.0):
            raise ValueError(
                f"wave speed must be supercritical (c > 1), got c = {self.c}"
            )
        _check_tail_gap(self.c)
        if not (self.delta > 0.0):
            raise ValueError(f"dispersion coefficient must be positive, got {self.delta}")
        if not (self.epsilon >= 0.0):
            raise ValueError(f"dissipation coefficient must be >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class Equilibria:
    """Rest points of the profile system and derived tail quantities.

    u_minus and u_plus are the two roots of u**2 - 3 c u + 2 (c**2 - 1) = 0.
    Only u_minus lies below c and is dynamically admissible; it is exposed
    again as u_tail together with the matching surface elevation eta_tail.
    u_inflect = c - c**(1/3) marks where the potential changes convexity.
    """

    u_minus: float
    u_plus: float
    u_tail: float
    eta_tail: float
    u_inflect: float


@dataclass(frozen=True)
class RealPair:
    """Two real eigenvalues, minus <= plus."""

    minus: float
    plus: float


@dataclass(frozen=True)
class ComplexConjugate:
    """Complex-conjugate eigenvalue pair real +/- i*imag with imag > 0."""

    real: float
    imag: float


TailEigenvalues = Union[RealPair, ComplexConjugate]


class RegimeKind(str, Enum):
    OSCILLATORY = "oscillatory"
    REGULARIZED = "regularized"


@dataclass(frozen=True)
class Regime:
    """Bore regime with the two sides of the deciding inequality.

    criterion_lhs = epsilon**2, criterion_rhs = 4 delta c restoring(c).
    lhs < rhs means the upstream point is a spiral (oscillatory bore);
    lhs >= rhs means a node (regularized, monotone bore).
    """

    kind: RegimeKind
    criterion_lhs: float
    criterion_rhs: float


def equilibria(params: WaveParams) -> Equilibria:
    """Rest points of the profile system for the given parameters.

    The quadratic u**2 - 3 c u + 2 (c**2 - 1) has roots
    (3 c -/+ sqrt(c**2 + 8)) / 2.  The lower root is the upstream (tail)
    velocity and satisfies c - 1 < u_tail < c; the upper one exceeds c and
    never participates in a bounded orbit.
    """
    c = params.c
    disc = math.sqrt(c * c + 8.0)
    u_minus = 0.5 * (3.0 * c - disc)
    u_plus = 0.5 * (3.0 * c + disc)
    eta_tail = u_minus / (c - u_minus)
    return Equilibria(
        u_minus=u_minus,
        u_plus=u_plus,
        u_tail=u_minus,
        eta_tail=eta_tail,
        u_inflect=c - c ** (1.0 / 3.0),
    )


def surface_elevation(u, c: float):
    """Map profile velocity to surface elevation, eta = u / (c - u).

    Works on scalars or arrays.  Every sample must satisfy u < c; the map
    is singular on the line u = c.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr >= c):
        raise ValueError("surface elevation is singular at u = c; need u < c")
    eta = u_arr / (c - u_arr)
    return float(eta) if np.ndim(u) == 0 else eta


def restoring_coefficient(c: float) -> float:
    """Curvature of the scaled potential at the upstream equilibrium.

    restoring(c) = (c - sqrt(c**2 + 8)) / 2 + 4 c / (c - sqrt(c**2 + 8))**2,
    equivalently u_tail - c + c / (u_tail - c)**2.  It vanishes at c = 1,
    is strictly increasing for c >= 1, and equals 3 exactly at c = 2.
    Positive restoring makes (u_tail, 0) a spiral or unstable node rather
    than a second saddle.
    """
    if not (c >= 1.0):
        raise ValueError(f"restoring coefficient needs c >= 1, got {c}")
    _check_tail_gap(c)
    d = 0.5 * (c - math.sqrt(c * c + 8.0))  # = u_tail - c < 0
    return d + c / (d * d)


def saddle_eigenvalues(params: WaveParams) -> tuple:
    """Eigenvalues (minus, plus) of the linearization at the rest state.

    Roots of lambda**2 - epsilon/(delta c) lambda - (c**2 - 1)/(delta c**2),
    i.e. (epsilon -/+ sqrt(epsilon**2 + 4 delta (c**2 - 1))) / (2 delta c).
    The product is -(c**2 - 1)/(delta c**2) < 0, so the origin is a saddle
    for every c > 1.  The negative root is computed from the product to
    avoid cancellation when epsilon dominates.
    """
    c, delta, eps = params.c, params.delta, params.epsilon
    disc = math.sqrt(eps * eps + 4.0 * delta * (c * c - 1.0))
    lam_plus = (eps + disc) / (2.0 * delta * c)
    lam_minus = -2.0 * (c * c - 1.0) / (c * (eps + disc))
    return lam_minus, lam_plus


def classify_regime(params: WaveParams) -> Regime:
    """Decide oscillatory vs regularized from epsilon**2 vs 4 delta c alpha.

    Ties (discriminant exactly zero) count as regularized: the tail point
    is already a degenerate node and the profile is monotone.  The only
    evaluation of the damping threshold; other functions read it here.
    """
    lhs = params.epsilon * params.epsilon
    rhs = 4.0 * params.delta * params.c * restoring_coefficient(params.c)
    kind = RegimeKind.REGULARIZED if lhs >= rhs else RegimeKind.OSCILLATORY
    return Regime(kind=kind, criterion_lhs=lhs, criterion_rhs=rhs)


def tail_eigenvalues(params: WaveParams) -> TailEigenvalues:
    """Eigenvalues of the linearization at the upstream point (u_tail, 0).

    They are (epsilon -/+ sqrt(d)) / (2 delta c), with the discriminant
    d = epsilon**2 - 4 delta c restoring(c) read from classify_regime.  An
    oscillatory regime gives the conjugate pair with real part
    epsilon / (2 delta c); a regularized one gives two positive reals
    (unstable node) with the smaller root evaluated in product form.
    """
    regime = classify_regime(params)
    d = regime.criterion_lhs - regime.criterion_rhs
    eps = params.epsilon
    two_dc = 2.0 * params.delta * params.c
    if regime.kind is RegimeKind.OSCILLATORY:
        return ComplexConjugate(real=eps / two_dc, imag=math.sqrt(-d) / two_dc)
    root = math.sqrt(d)
    small = 2.0 * restoring_coefficient(params.c) / (eps + root) if eps + root > 0.0 else 0.0
    return RealPair(minus=small, plus=(eps + root) / two_dc)


def critical_epsilon(c: float, delta: float) -> float:
    """Dissipation strength separating the two regimes at fixed (c, delta).

    The smallest double epsilon* that classify_regime calls regularized:
    sqrt(4 delta c restoring(c)), or the next double up when that rounded
    root squares to just below the threshold.
    """
    eps = math.sqrt(classify_regime(WaveParams(c, delta, 0.0)).criterion_rhs)
    if classify_regime(WaveParams(c, delta, eps)).kind is RegimeKind.OSCILLATORY:
        eps = math.nextafter(eps, math.inf)
    return eps


def _reduced_potential(u, c: float):
    """Potential divided by delta*c; vectorized, valid for u != c."""
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(c/|c-u|) = -log1p(-u/c) for u < c; the general form handles both sides.
        log_term = np.where(
            u < c, -np.log1p(-u / c), np.log(c / np.abs(c - u))
        )
    return u ** 3 / 6.0 - c * u ** 2 / 2.0 - u + c * log_term


def potential(u, params: WaveParams):
    """Potential G of the profile system; the orbit lives in its well.

    G(u) = delta c [u**3/6 - c u**2/2 - u + c log(c/|c-u|)], normalized so
    G(0) = 0.  G is singular at u = c (rejected), has a strict local
    minimum at u_tail, and changes convexity at u_inflect = c - c**(1/3).
    Accepts scalars or arrays.
    """
    c = params.c
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr == c):
        raise ValueError("potential is singular at u = c")
    out = params.delta * c * _reduced_potential(u_arr, c)
    return float(out) if np.ndim(u) == 0 else out


def lyapunov_value(u, v, params: WaveParams):
    """Energy-like functional V = v**2/2 + G(u) of the profile system.

    In the rescaled independent variable -xi/(delta c) its derivative along
    orbits is -epsilon v**2 <= 0, so V grows monotonically with xi along a
    bore and is < 0 strictly between the two equilibria.
    """
    v_arr = np.asarray(v, dtype=float)
    out = 0.5 * v_arr ** 2 + potential(u, params)
    return float(out) if np.ndim(v) == 0 else out


def dissipated_energy(c: float) -> float:
    """Total gradient energy a bore burns, epsilon * integral of u'**2.

    In closed form
        f(c) = -(1/6)(2 + c**2)(-3c + sqrt(c**2 + 8))
               - c log[(c/4)(c + sqrt(c**2 + 8))],
    which is independent of delta and epsilon, vanishes to second order at
    c = 1, and is strictly positive and increasing for c > 1.  It equals
    -G(u_tail)/(delta c), the depth of the potential well.
    """
    if not (c >= 1.0):
        raise ValueError(f"dissipated energy needs c >= 1, got {c}")
    _check_tail_gap(c)
    disc = math.sqrt(c * c + 8.0)
    energy = -(2.0 + c * c) * (disc - 3.0 * c) / 6.0 - c * math.log(
        0.25 * c * (c + disc)
    )
    if not math.isfinite(energy):
        raise ValueError(f"dissipated energy at c = {c} is not finite in a double")
    return energy


def solitary_amplitude(c: float) -> tuple:
    """Crest u_bar of the solitary wave with speed c, and w = c - u_bar.

    u_bar is the unique zero in (u_tail, c) of the reduced potential
    g(u) = P(u) + c log(c/w), P(u) = u**3/6 - c u**2/2 - u: the level at
    which an orbit launched from rest returns to rest.  Its leading balance
    c log(c/w) = -P(c) gives the seed w0 = c exp(-(c**2/3 + 1)); c - w0
    rounds to c from c ~ 10.25 on, so u and w are carried together and w
    keeps the digits u cannot.  g(c - w0) = P(c - w0) - P(c) > 0 for every
    c, and g is convex on [u_tail, c), so Newton steps from w0 descend
    monotonically onto the root; they stop at the first g <= 0 or once the
    smaller of u and w moves by at most 4 eps of itself.  Read every
    c/(c - u_bar) and u_bar/(c - u_bar) as c/w and u_bar/w.  Independent
    of delta and epsilon.  RootFindError where the well depth -g(u_tail) is
    below 4 eps u_tail, the rounding of g (c < 1 + 5e-8), or where c/w0
    overflows (c > 46.1).
    """
    if not (c > 1.0):
        raise ValueError(f"solitary amplitude needs c > 1, got {c}")
    _check_tail_gap(c)

    def g(u, w):
        return u ** 3 / 6.0 - c * u ** 2 / 2.0 - u + c * math.log1p(u / w)

    u_tail = 0.5 * (3.0 * c - math.sqrt(c * c + 8.0))
    if not g(u_tail, c - u_tail) < -4.0 * sys.float_info.epsilon * u_tail:
        raise RootFindError(f"at c = {c} the potential well is within the rounding of g")
    w = c * math.exp(-(c * c / 3.0 + 1.0))
    if not w > c / sys.float_info.max:
        raise RootFindError(f"at c = {c} the solitary crest is too close to u = c for c/w")
    u = c - w
    for _ in range(_SOLITARY_MAX_ITER):
        gu = g(u, w)
        if gu <= 0.0:
            return u, w
        du = gu / (0.5 * u * u - c * u - 1.0 + c / w)
        # Step the smaller of u and w and derive the other, so u + w = c to
        # rounding and log1p(u/w) keeps the digits of the smaller one.
        if u < w:
            u -= du
            w = c - u
        else:
            w += du
            u = c - w
        if du <= 4.0 * sys.float_info.epsilon * min(u, w):
            return u, w
    raise RootFindError(f"solitary amplitude did not converge at c = {c}: g = {gu}")


def speed_from_amplitude(eta_bar: float) -> float:
    """Wave speed of the solitary wave with crest elevation eta_bar.

    c = sqrt(6) (1 + eta) sqrt((1 + eta) log(1 + eta) - eta)
        / (sqrt(3 + 2 eta) eta)
    with a removable singularity at eta = 0 (limit 1).  Inputs <= 0 are
    rejected.  Agrees with the cubic expansion of speed_from_amplitude_series
    to O(eta**4).  Below eta = 0.5, where (1 + eta) log1p(eta) - eta
    cancels, that difference is eta**2 s with the alternating series
    s = sum_k (-eta)**k / ((k + 1)(k + 2)), and
    c = (1 + eta) sqrt(6 s / (3 + 2 eta)): within 1.5 ulp of c there.
    """
    if not (eta_bar > 0.0):
        raise ValueError(f"crest elevation must be positive, got {eta_bar}")
    if eta_bar < _SMALL_ETA:
        s = 0.0
        for k in range(_SMALL_ETA_TERMS - 1, -1, -1):
            s = 1.0 / ((k + 1) * (k + 2)) - eta_bar * s
        return (1.0 + eta_bar) * math.sqrt(6.0 * s / (3.0 + 2.0 * eta_bar))
    x = (1.0 + eta_bar) * math.log1p(eta_bar) - eta_bar
    return (
        math.sqrt(6.0)
        * (1.0 + eta_bar)
        * math.sqrt(x)
        / (math.sqrt(3.0 + 2.0 * eta_bar) * eta_bar)
    )


def speed_from_amplitude_series(eta_bar: float) -> float:
    """Small-amplitude expansion of speed_from_amplitude, through eta**3.

    c = 1 + eta/2 - 5 eta**2/24 + 79 eta**3/720.
    """
    return 1.0 + eta_bar * (0.5 + eta_bar * (-5.0 / 24.0 + eta_bar * (79.0 / 720.0)))


def froude_from_tail(eta_tail: float) -> float:
    """Exact bore speed carried by a given upstream elevation.

    c = (1 + eta) sqrt(2 / (2 + eta)); this is the jump condition of the
    dispersionless reduction and the exact inverse of the map
    c -> eta_tail computed by equilibria.  eta = 0 returns 1.
    """
    if not (eta_tail >= 0.0):
        raise ValueError(f"tail elevation must be >= 0, got {eta_tail}")
    return (1.0 + eta_tail) * math.sqrt(2.0 / (2.0 + eta_tail))


def empirical_bore_amplitude(c: float) -> float:
    """Classical open-channel bore elevation, eta = (sqrt(1 + 8 c**2) - 3) / 2.

    The root of c = sqrt(1 + (3/2) eta + (1/2) eta**2), the hydraulic-jump
    relation for the physical depth-momentum pair.  It deviates from the
    inverse of froude_from_tail at second order in eta; for comparison
    tables only.
    """
    if not (c >= 1.0):
        raise ValueError(f"empirical bore amplitude needs c >= 1, got {c}")
    return 0.5 * (math.sqrt(1.0 + 8.0 * c * c) - 3.0)

"""Closed-form layer: values against independent oracles, then invariants.

Derived reference numbers are recomputed here by bisection / finite
differences rather than trusted from the implementation under test.
"""

import math
import re

import numpy as np
import pytest

from bore_lab import (
    ComplexConjugate,
    RealPair,
    RegimeKind,
    WaveParams,
    classify_regime,
    critical_epsilon,
    dissipated_energy,
    empirical_bore_amplitude,
    equilibria,
    froude_from_tail,
    lyapunov_value,
    potential,
    restoring_coefficient,
    saddle_eigenvalues,
    solitary_amplitude,
    speed_from_amplitude,
    speed_from_amplitude_series,
    surface_elevation,
    tail_eigenvalues,
)
from bore_lab.errors import RootFindError


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def central_second(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def central_first(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# equilibria


def test_tail_velocity_c2_exact():
    eq = equilibria(WaveParams(2.0, 1.0, 0.0))
    assert abs(eq.u_tail - (3.0 - math.sqrt(3.0))) < 1e-14


def test_tail_velocity_matches_bisection_oracle():
    for c in (1.2, 1.7, 3.3, 8.0):
        root = bisect(lambda u: u * u - 3.0 * c * u + 2.0 * (c * c - 1.0), 0.0, c)
        eq = equilibria(WaveParams(c, 1.0, 0.0))
        assert abs(eq.u_tail - root) < 1e-12
        assert abs(eq.eta_tail - root / (c - root)) < 1e-12


def test_equilibria_vieta_and_ordering():
    for c in np.linspace(1.0 + 1e-6, 10.0, 1000):
        eq = equilibria(WaveParams(float(c), 1.0, 0.0))
        s, p = eq.u_minus + eq.u_plus, eq.u_minus * eq.u_plus
        assert abs(s - 3.0 * c) <= 1e-12 * max(1.0, abs(3.0 * c))
        assert abs(p - 2.0 * (c * c - 1.0)) <= 1e-12 * max(1.0, 2.0 * (c * c - 1.0))
        assert c - 1.0 < eq.u_tail < c < eq.u_plus
        assert eq.eta_tail > 0.0


def test_subcritical_speed_rejected():
    with pytest.raises(ValueError):
        WaveParams(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        WaveParams(0.9, 1.0, 0.1)


@pytest.mark.parametrize(
    "triple",
    [
        (math.inf, 1.0, 0.1),
        (math.nan, 1.0, 0.1),
        (1.3, math.inf, 0.1),
        (1.3, math.nan, 0.1),
        (1.3, 1.0, math.inf),
        (1.3, 1.0, math.nan),
    ],
)
def test_non_finite_parameters_rejected(triple):
    with pytest.raises(ValueError, match="must be finite"):
        WaveParams(*triple)


def test_tail_degenerates_at_criticality():
    eq = equilibria(WaveParams(1.0 + 1e-12, 1.0, 0.0))
    assert eq.u_tail < 1e-11
    assert eq.eta_tail < 1e-11


# ---------------------------------------------------------------------------
# restoring coefficient and regime


def test_restoring_coefficient_exact_points():
    assert restoring_coefficient(1.0) == pytest.approx(0.0, abs=1e-14)
    assert abs(restoring_coefficient(2.0) - 3.0) < 1e-12


def test_restoring_coefficient_is_potential_curvature():
    # alpha(c) equals G''(u_tail) / (delta c): independent check by FD.
    for c in (1.3, 2.0, 4.0):
        params = WaveParams(c, 0.7, 0.0)
        eq = equilibria(params)
        curv = central_second(lambda u: potential(u, params), eq.u_tail)
        assert restoring_coefficient(c) == pytest.approx(
            curv / (params.delta * c), rel=1e-6
        )


def test_restoring_coefficient_monotone():
    grid = np.linspace(1.0, 10.0, 400)
    vals = [restoring_coefficient(float(c)) for c in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_classify_regime_fig2_and_c111():
    reg = classify_regime(WaveParams(1.3, 0.2, 1.2))
    assert reg.kind is RegimeKind.REGULARIZED
    assert reg.criterion_lhs == pytest.approx(1.44)
    assert reg.criterion_rhs == pytest.approx(
        4.0 * 0.2 * 1.3 * restoring_coefficient(1.3), rel=1e-15
    )
    osc = classify_regime(WaveParams(1.11, 1.0 / 3.0, 0.06))
    assert osc.kind is RegimeKind.OSCILLATORY
    assert osc.criterion_rhs == pytest.approx(0.33994507681630093, rel=1e-12)
    assert osc.criterion_lhs < osc.criterion_rhs


def test_critical_epsilon_flips_regime():
    for c, delta in ((1.3, 0.2), (2.0, 0.5), (4.0, 1.0)):
        eps_star = critical_epsilon(c, delta)
        below = classify_regime(WaveParams(c, delta, eps_star * (1.0 - 1e-10)))
        at = classify_regime(WaveParams(c, delta, eps_star))
        assert below.kind is RegimeKind.OSCILLATORY
        assert at.kind is RegimeKind.REGULARIZED


@pytest.mark.parametrize("c", [1.05, 1.3, 2.0, 5.0, 9.5])
@pytest.mark.parametrize("delta", [1e-3, 0.2, 2.0])
def test_one_tie_rule(c, delta):
    # critical_epsilon is the smallest double classify_regime calls
    # regularized, and tail_eigenvalues branches the same way on both sides.
    eps_star = critical_epsilon(c, delta)
    at = WaveParams(c, delta, eps_star)
    below = WaveParams(c, delta, math.nextafter(eps_star, 0.0))
    assert classify_regime(at).kind is RegimeKind.REGULARIZED
    assert isinstance(tail_eigenvalues(at), RealPair)
    assert classify_regime(below).kind is RegimeKind.OSCILLATORY
    assert isinstance(tail_eigenvalues(below), ComplexConjugate)


@pytest.mark.parametrize("c, delta", [(math.inf, 0.5), (2.0, math.inf)])
def test_critical_epsilon_refuses_non_finite_input(c, delta):
    with pytest.raises(ValueError, match="must be finite"):
        critical_epsilon(c, delta)


def test_critical_epsilon_values():
    assert critical_epsilon(2.0, 0.5) == pytest.approx(math.sqrt(12.0), rel=1e-13)
    assert critical_epsilon(1.3, 0.2) == pytest.approx(0.8383395446229535, rel=1e-12)


# ---------------------------------------------------------------------------
# eigenvalues


def test_saddle_eigenvalues_exact_cases():
    lm, lp = saddle_eigenvalues(WaveParams(2.0, 1.0, 0.0))
    assert lm == pytest.approx(-math.sqrt(3.0) / 2.0, rel=1e-14)
    assert lp == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
    lm, lp = saddle_eigenvalues(WaveParams(2.0, 1.0, 1.0))
    assert lm == pytest.approx((1.0 - math.sqrt(13.0)) / 4.0, rel=1e-14)
    assert lp == pytest.approx((1.0 + math.sqrt(13.0)) / 4.0, rel=1e-14)


def test_saddle_characteristic_residual():
    for c in (1.05, 1.5, 3.0, 9.0):
        for delta in (0.2, 1.0):
            for eps in (0.0, 0.3, 2.0):
                params = WaveParams(c, delta, eps)
                dc = delta * c
                for lam in saddle_eigenvalues(params):
                    res = lam * lam - eps / dc * lam - (c * c - 1.0) / (dc * c)
                    assert abs(res) < 1e-12 * max(1.0, lam * lam)


def test_saddle_product_identity():
    for c in (1.2, 2.0, 5.0):
        params = WaveParams(c, 0.4, 0.7)
        lm, lp = saddle_eigenvalues(params)
        assert lm * lp == pytest.approx(
            -(c * c - 1.0) / (params.delta * c * c), rel=1e-13
        )
        assert lm < 0.0 < lp


def test_tail_eigenvalues_complex_case():
    tail = tail_eigenvalues(WaveParams(2.0, 0.5, 0.0))
    assert isinstance(tail, ComplexConjugate)
    assert tail.real == pytest.approx(0.0, abs=1e-15)
    assert tail.imag == pytest.approx(math.sqrt(3.0), rel=1e-13)


def test_tail_eigenvalues_real_case():
    params = WaveParams(1.3, 0.2, 1.2)
    tail = tail_eigenvalues(params)
    assert isinstance(tail, RealPair)
    regime = classify_regime(params)
    discriminant = regime.criterion_lhs - regime.criterion_rhs
    assert discriminant == pytest.approx(1.44 - 0.702813192078621, rel=1e-10)
    assert 0.0 < tail.minus <= tail.plus
    dc = params.delta * params.c
    restoring = restoring_coefficient(params.c)
    for lam in (tail.minus, tail.plus):
        res = lam * lam - params.epsilon / dc * lam + restoring / dc
        assert abs(res) < 1e-12 * max(1.0, lam * lam)


def test_tail_real_part_is_half_epsilon_rule():
    params = WaveParams(1.11, 1.0 / 3.0, 0.06)
    tail = tail_eigenvalues(params)
    assert isinstance(tail, ComplexConjugate)
    assert tail.real == pytest.approx(
        params.epsilon / (2.0 * params.delta * params.c), rel=1e-14
    )


# ---------------------------------------------------------------------------
# potential and Lyapunov function


def test_potential_zero_at_origin_and_singular():
    params = WaveParams(2.0, 0.5, 0.0)
    assert potential(0.0, params) == 0.0
    with pytest.raises(ValueError):
        potential(2.0, params)


def test_potential_stationary_at_tail_and_inflection():
    params = WaveParams(2.0, 0.5, 0.0)
    eq = equilibria(params)
    slope = central_first(lambda u: potential(u, params), eq.u_tail)
    assert abs(slope) < 1e-6
    curv = central_second(lambda u: potential(u, params), eq.u_inflect)
    assert abs(curv) < 1e-6
    assert potential(eq.u_tail, params) < 0.0


def test_potential_root_is_solitary_amplitude():
    for c in (1.2, 2.0, 3.5):
        params = WaveParams(c, 1.0, 0.0)
        eq = equilibria(params)
        u_bar, w = solitary_amplitude(c)
        root = bisect(
            lambda u: potential(u, params), eq.u_tail * (1 + 1e-9), c * (1 - 1e-9)
        )
        assert u_bar == pytest.approx(root, rel=1e-10)
        assert eq.u_tail < u_bar < c
        assert w == pytest.approx(c - u_bar, rel=1e-15)
        assert abs(potential(u_bar, params)) < 1e-12 * params.delta * c


def test_lyapunov_value_composition():
    params = WaveParams(1.5, 0.4, 0.8)
    assert lyapunov_value(0.0, 0.0, params) == 0.0
    eq = equilibria(params)
    assert lyapunov_value(eq.u_tail, 0.0, params) == pytest.approx(
        potential(eq.u_tail, params), rel=1e-15
    )
    assert lyapunov_value(0.3, 2.0, params) == pytest.approx(
        2.0 + potential(0.3, params), rel=1e-14
    )


# ---------------------------------------------------------------------------
# dissipation budget


def test_dissipated_energy_exact_points():
    assert dissipated_energy(1.0) == pytest.approx(0.0, abs=1e-14)
    exact = 6.0 - 2.0 * math.sqrt(3.0) - 2.0 * math.log(1.0 + math.sqrt(3.0))
    assert dissipated_energy(2.0) == pytest.approx(exact, rel=1e-14)


def test_dissipated_energy_is_well_depth():
    # f(c) = -G(u_tail) / (delta c), an independent route through the potential.
    for c in (1.1, 1.7, 2.9, 6.0):
        params = WaveParams(c, 0.37, 0.0)
        eq = equilibria(params)
        well = -potential(eq.u_tail, params) / (params.delta * c)
        assert dissipated_energy(c) == pytest.approx(well, rel=1e-11)


def test_dissipated_energy_positive_supercritical():
    for c in np.linspace(1.01, 10.0, 300):
        assert dissipated_energy(float(c)) > 0.0


@pytest.mark.parametrize("closed_form, c", [
    (restoring_coefficient, 1e9),  # the tail gap rounds to 0: ZeroDivisionError
    (solitary_amplitude, 1e9),
    (restoring_coefficient, 1e200),  # c**2 overflows: the value was -inf
    (dissipated_energy, 1e200),
])
def test_closed_forms_refuse_a_c_without_tail_gap(closed_form, c):
    with pytest.raises(ValueError, match=re.escape(f"c = {c}")):
        closed_form(c)


# ---------------------------------------------------------------------------
# speed-amplitude relations


def test_speed_from_amplitude_matches_series():
    for eta in np.concatenate([np.linspace(0.01, 0.5, 50), [1e-3, 5e-3]]):
        closed = speed_from_amplitude(float(eta))
        series = speed_from_amplitude_series(float(eta))
        assert abs(closed - series) <= 0.5 * eta ** 4


def test_speed_from_amplitude_example_point():
    assert speed_from_amplitude_series(0.2) == pytest.approx(1.0925444444444445)
    assert speed_from_amplitude(0.2) == pytest.approx(1.0925444, abs=5e-4)
    with pytest.raises(ValueError):
        speed_from_amplitude(0.0)
    with pytest.raises(ValueError):
        speed_from_amplitude(-0.1)


# c at crest elevation eta, rounded from a 60-digit evaluation of the closed
# form (mpmath); the closed form in doubles cancels as eta -> 0.
SMALL_AMPLITUDE_SPEEDS = [
    (1e-1, 1.04802039456149081664338),
    (1e-2, 1.004979275756756439220989),
    (1e-4, 1.00004999791677638253172),
    (1e-6, 1.000000499999791666776366),
    (1e-8, 1.000000004999999979166667),
    (1e-12, 1.0000000000005),
]


@pytest.mark.parametrize("eta, c_ref", SMALL_AMPLITUDE_SPEEDS)
def test_speed_from_amplitude_keeps_its_digits_at_small_amplitude(eta, c_ref):
    assert abs(speed_from_amplitude(eta) - c_ref) <= 4.5e-16


def test_speed_from_amplitude_is_continuous_at_the_series_cutoff():
    below = speed_from_amplitude(math.nextafter(0.5, 0.0))
    assert abs(below - speed_from_amplitude(0.5)) <= 4.0 * math.ulp(below)


def test_speed_amplitude_round_trip():
    c = speed_from_amplitude(0.2)
    u_bar, w = solitary_amplitude(c)
    assert abs(u_bar / w - 0.2) < 1e-12
    assert abs(surface_elevation(u_bar, c) - 0.2) < 1e-12


def test_solitary_amplitude_round_trip_series_speed():
    c = 1.0925444444444445
    u_bar, w = solitary_amplitude(c)
    assert abs(u_bar / w - 0.2) < 1e-3  # series truncation is O(eta**4)


def test_solitary_amplitude_rejects_subcritical():
    with pytest.raises(ValueError):
        solitary_amplitude(1.0)


def test_solitary_amplitude_converges_across_envelope():
    # g's terms are O(c**3): the converged root is a sign change of g,
    # not a zero to any absolute tolerance.
    # Up to c = 10 the crest lies as close as 6 ulps below c, so the upper
    # probe stops at the last double below c.
    for c in np.linspace(1.2, 10.0, 40):
        c = float(c)
        params = WaveParams(c, 1.0, 0.0)
        u_bar = solitary_amplitude(c)[0]
        assert equilibria(params).u_tail < u_bar < c
        ulps = 32.0 * np.spacing(u_bar)
        above = min(u_bar + ulps, np.nextafter(c, 0.0))
        assert potential(u_bar - ulps, params) < 0.0 < potential(above, params)


@pytest.mark.parametrize("c", [12.0, 15.0, 20.0])
def test_solitary_crest_matches_its_asymptote_at_large_speed(c):
    # c log(c/w) = c**3/3 + c to leading order; the next term is of relative
    # order c w < 1e-19, so w is the asymptote to rounding.  u_bar rounds to c.
    u_bar, w = solitary_amplitude(c)
    assert w == pytest.approx(c * math.exp(-(c * c / 3.0 + 1.0)), rel=1e-14)
    assert u_bar == c


def test_speed_from_solitary_amplitude_round_trips_to_c():
    for c in np.linspace(1.05, 20.0, 60):
        u_bar, w = solitary_amplitude(float(c))
        assert speed_from_amplitude(u_bar / w) == pytest.approx(c, rel=1e-13)


def test_solitary_crest_refuses_where_doubles_cannot_resolve_it():
    # c/w overflows from c ~ 46.1; below c ~ 1 + 5e-8 the well is rounding.
    for c in (47.0, 1.0 + 1e-8):
        with pytest.raises(RootFindError):
            solitary_amplitude(c)
    solitary_amplitude(46.0)
    solitary_amplitude(1.0 + 1e-7)


def test_tail_below_solitary_crest():
    for c in np.linspace(1.01, 1.4, 40):
        eq = equilibria(WaveParams(float(c), 1.0, 0.0))
        u_bar, w = solitary_amplitude(float(c))
        eta_bar = u_bar / w
        assert eq.eta_tail < eta_bar


# ---------------------------------------------------------------------------
# Froude relations


def test_froude_from_tail_round_trips():
    for c in np.linspace(1.0001, 9.5, 200):
        eq = equilibria(WaveParams(float(c), 1.0, 0.0))
        assert abs(froude_from_tail(eq.eta_tail) - c) < 1e-12 * c


def test_froude_from_tail_exact_points():
    assert froude_from_tail(0.0) == 1.0
    eq = equilibria(WaveParams(2.0, 1.0, 0.0))
    assert eq.eta_tail == pytest.approx(math.sqrt(3.0), rel=1e-14)
    assert froude_from_tail(eq.eta_tail) == pytest.approx(2.0, rel=1e-13)


def test_empirical_bore_amplitude_solves_the_open_channel_relation():
    for c in (1.0, 1.01, 1.3, 2.0, 5.0, 9.5):
        eta = empirical_bore_amplitude(c)
        assert abs(math.sqrt(1.0 + 1.5 * eta + 0.5 * eta * eta) - c) < 1e-12 * c


def test_empirical_bore_amplitude_agrees_at_small_jumps():
    # The open-channel approximation deviates from the exact inverse of
    # froude_from_tail only at second order in eta.
    for eta in (0.01, 0.05):
        assert empirical_bore_amplitude(froude_from_tail(eta)) == pytest.approx(
            eta, abs=0.3 * eta * eta
        )


def test_surface_elevation_singular_input():
    with pytest.raises(ValueError):
        surface_elevation(2.0, 2.0)
    with pytest.raises(ValueError):
        surface_elevation(np.array([0.1, 2.5]), 2.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        WaveParams(2.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        WaveParams(2.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        WaveParams(2.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        critical_epsilon(1.0, 0.5)
    with pytest.raises(ValueError):
        restoring_coefficient(0.99)
    with pytest.raises(ValueError, match="dissipated energy needs c >= 1"):
        dissipated_energy(0.99)
    with pytest.raises(ValueError, match="tail elevation must be >= 0"):
        froude_from_tail(-0.1)
    with pytest.raises(ValueError, match="empirical bore amplitude needs c >= 1"):
        empirical_bore_amplitude(0.5)

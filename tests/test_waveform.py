"""Closed-form layer: values against independent oracles, then invariants.

Derived reference numbers are recomputed here by bisection / finite
differences rather than trusted from the implementation under test.
"""

import math

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
    empirical_bore_speed,
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
    spec = tail_eigenvalues(WaveParams(2.0, 0.5, 0.0))
    assert isinstance(spec.tail, ComplexConjugate)
    assert spec.tail.real == pytest.approx(0.0, abs=1e-15)
    assert spec.tail.imag == pytest.approx(math.sqrt(3.0), rel=1e-13)
    assert spec.triangle_slope is None


def test_tail_eigenvalues_real_case():
    params = WaveParams(1.3, 0.2, 1.2)
    spec = tail_eigenvalues(params)
    assert isinstance(spec.tail, RealPair)
    assert spec.discriminant == pytest.approx(1.44 - 0.702813192078621, rel=1e-10)
    assert 0.0 < spec.tail.minus <= spec.tail.plus
    dc = params.delta * params.c
    for lam in (spec.tail.minus, spec.tail.plus):
        res = lam * lam - params.epsilon / dc * lam + spec.restoring / dc
        assert abs(res) < 1e-12 * max(1.0, lam * lam)
    assert spec.triangle_slope == pytest.approx(dc * spec.tail.minus, rel=1e-14)


def test_tail_real_part_is_half_epsilon_rule():
    params = WaveParams(1.11, 1.0 / 3.0, 0.06)
    spec = tail_eigenvalues(params)
    assert isinstance(spec.tail, ComplexConjugate)
    assert spec.tail.real == pytest.approx(
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
        u_bar = solitary_amplitude(c)
        root = bisect(
            lambda u: potential(u, params), eq.u_tail * (1 + 1e-9), c * (1 - 1e-9)
        )
        assert u_bar == pytest.approx(root, rel=1e-10)
        assert eq.u_tail < u_bar < c
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


def test_speed_amplitude_round_trip():
    c = speed_from_amplitude(0.2)
    u_bar = solitary_amplitude(c)
    eta_rt = surface_elevation(u_bar, c)
    assert abs(eta_rt - 0.2) < 1e-12


def test_solitary_amplitude_round_trip_series_speed():
    c = 1.0925444444444445
    eta_rt = surface_elevation(solitary_amplitude(c), c)
    assert abs(eta_rt - 0.2) < 1e-3  # series truncation is O(eta**4)


def test_solitary_amplitude_rejects_subcritical():
    with pytest.raises(ValueError):
        solitary_amplitude(1.0)


def test_tail_below_solitary_crest():
    for c in np.linspace(1.01, 1.4, 40):
        eq = equilibria(WaveParams(float(c), 1.0, 0.0))
        eta_bar = surface_elevation(solitary_amplitude(float(c)), float(c))
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


def test_empirical_bore_speed_agrees_at_small_jumps():
    # The open-channel approximation deviates only at second order.
    for eta in (0.01, 0.05):
        assert empirical_bore_speed(eta) == pytest.approx(
            froude_from_tail(eta), abs=0.3 * eta * eta
        )
    assert empirical_bore_amplitude(empirical_bore_speed(0.3)) == pytest.approx(
        0.3, rel=1e-12
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

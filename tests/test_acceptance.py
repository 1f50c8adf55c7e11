"""Acceptance suite: ten headline checks, one test each, and one CSV check
that rides on the c08 study.

Each test states its tolerance inline and is meant to emit a single
pass/fail line under `pytest -v`.  Module fixtures share the expensive
profile integrations and PDE runs between criteria.
"""

import math

import numpy as np
import pytest

from bore_lab.config import build_wave_params, preset_pairs
from bore_lab.csvio import _decimal
from bore_lab.pde import (
    FieldPair,
    Gaussian,
    Grid,
    RunConfig,
    SmoothedRiemann,
    discrete_mass,
    error_norm,
    error_study,
    evolve,
    front_position,
    make_initial,
    sample_profile_on_grid,
    shape_misfit,
)
from bore_lab.traveling_wave import (
    ProfileOptions,
    check_derivative_bounds,
    check_triangle_confinement,
    energy_identity_residual,
    integrate_profile,
    lyapunov_backstep,
    shape_report,
)
from bore_lab.waveform import (
    RegimeKind,
    WaveParams,
    classify_regime,
    dissipated_energy,
    equilibria,
    froude_from_tail,
    restoring_coefficient,
    saddle_eigenvalues,
    solitary_amplitude,
    speed_from_amplitude,
    speed_from_amplitude_series,
    surface_elevation,
    tail_eigenvalues,
)

MONOTONE = WaveParams(1.3, 0.2, 1.2)
OSCILLATORY = WaveParams(2.0, 0.5, 0.3)
ALL_TRIPLES = [
    MONOTONE,
    OSCILLATORY,
    WaveParams(1.11, 1.0 / 3.0, 0.06),
    WaveParams(1.5, 0.4, 2.0),
    WaveParams(3.0, 0.5, 1.0),
]
FIGURE_PRESETS = ["fig2", "fig5", "fig6-a", "fig6-b", "fig6-c", "fig9"]


@pytest.fixture(scope="module")
def orbits():
    """Profile and shape report for each of the five parameter triples."""
    out = {}
    for params in ALL_TRIPLES:
        profile = integrate_profile(params)
        out[params] = (profile, shape_report(profile))
    return out


@pytest.fixture(scope="module")
def injected_wave():
    """Each figure preset's front run through the PDE at two resolutions.

    The periodic grid spans [min(-400, xi_0 - 200), 400], xi_0 the
    profile's left end, and the upstream plateau is ramped to zero 100
    inside its left end.  fig2 is MONOTONE on [-400, 400].
    """
    out = {}
    for name in FIGURE_PRESETS:
        params = build_wave_params(preset_pairs(name))
        profile = integrate_profile(params)
        eq = equilibria(params)
        x_min = min(-400.0, float(profile.xi[0]) - 200.0)

        def run(refine):
            dx = 0.25 / refine
            g = Grid(x_min, 400.0, int(round((400.0 - x_min) / dx)), "periodic")
            cfg = RunConfig("peregrine-dissipative", g, SmoothedRiemann(eq.eta_tail, 2.0),
                            0.025 / refine, 1.0, delta=params.delta,
                            epsilon=params.epsilon)
            init = sample_profile_on_grid(profile, g, blend_center=x_min + 100.0)
            final = evolve(cfg, initial=init)[-1]
            shift = (front_position(final, g, eq.eta_tail / 2.0)
                     - front_position(init, g, eq.eta_tail / 2.0))
            misfit = shape_misfit(init, final, g, shift=params.c * 1.0,
                                  window=(-100.0, 100.0))
            return shift, misfit, g.dx

        out[name] = (params, run(1), run(2))
    return out


# -------------------------------------------------------------------------


def test_c01_closed_form_identities():
    # restoring coefficient and tail level at the reference speed c = 2,
    # cubic root identities, and positivity of the dissipated energy.
    assert abs(restoring_coefficient(2.0) - 3.0) < 1e-12
    eq = equilibria(WaveParams(2.0, 1.0, 0.0))
    assert eq.u_tail == pytest.approx(3.0 - math.sqrt(3.0), rel=1e-14)
    speeds = np.linspace(1.0, 10.0, 1001)[1:]
    for c in speeds:
        eq = equilibria(WaveParams(float(c), 1.0, 0.0))
        root_sum = eq.u_minus + eq.u_plus
        root_product = eq.u_minus * eq.u_plus
        assert abs(root_sum - 3.0 * c) <= 1e-12 * max(1.0, 3.0 * c)
        target = 2.0 * (c * c - 1.0)
        assert abs(root_product - target) <= 1e-12 * max(1.0, target)
    assert dissipated_energy(1.0) == 0.0
    assert all(dissipated_energy(float(c)) > 0.0 for c in speeds)


def test_c02_regime_reproduction(orbits):
    profile, report = orbits[MONOTONE]
    assert classify_regime(MONOTONE).kind is RegimeKind.REGULARIZED
    assert report.regime_observed == "monotone"
    assert len(report.maxima) == 0 and len(report.minima) == 0
    assert len(report.inflections) == 1
    u_at_inflection = float(np.interp(report.inflections[0], profile.xi, profile.u))
    lower = MONOTONE.c - MONOTONE.c ** (1.0 / 3.0)
    upper = equilibria(MONOTONE).u_tail
    assert lower < u_at_inflection < upper

    profile, report = orbits[OSCILLATORY]
    assert classify_regime(OSCILLATORY).kind is RegimeKind.OSCILLATORY
    assert len(report.maxima) + len(report.minima) >= 5
    merged = sorted(
        [(xi, "max") for xi, _ in report.maxima]
        + [(xi, "min") for xi, _ in report.minima]
    )
    kinds = [kind for _, kind in merged]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    max_values = np.array([u for _, u in report.maxima])
    min_values = np.array([u for _, u in report.minima])
    # toward -inf: maxima shrink and minima rise (listed in ascending xi)
    assert np.all(np.diff(max_values) > 0.0)
    assert np.all(np.diff(min_values) < 0.0)


def test_c03_tail_and_spectrum(orbits):
    for params in (MONOTONE, OSCILLATORY):
        profile, report = orbits[params]
        u0 = equilibria(params).u_tail
        assert abs(profile.u[0] - u0) < 1e-7
        lam_minus, _ = saddle_eigenvalues(params)
        assert report.tail_decay_rate_plus == pytest.approx(lam_minus, rel=0.05)
    _, report = orbits[OSCILLATORY]
    tail = tail_eigenvalues(OSCILLATORY)
    envelope = OSCILLATORY.epsilon / (2.0 * OSCILLATORY.delta * OSCILLATORY.c)
    assert report.tail_decay_rate_minus == pytest.approx(envelope, rel=0.05)
    assert report.tail_frequency == pytest.approx(tail.imag, rel=0.05)


def test_c04_energy_identity(orbits):
    kinds = set()
    for params in ALL_TRIPLES:
        kinds.add(classify_regime(params).kind)
        profile, _ = orbits[params]
        assert energy_identity_residual(profile) < 1e-3
    assert kinds == {RegimeKind.REGULARIZED, RegimeKind.OSCILLATORY}


def test_c05_descent_and_confinement(orbits):
    options = ProfileOptions()
    for params in ALL_TRIPLES:
        profile, _ = orbits[params]
        allowance = 10.0 * (options.rtol + options.atol)
        assert lyapunov_backstep(profile) <= allowance
        u_bar = solitary_amplitude(params.c)[0]
        assert np.all(profile.u > 0.0)
        assert np.all(profile.u < u_bar)
        assert u_bar < params.c
        assert check_derivative_bounds(profile).passed
        if classify_regime(params).kind is RegimeKind.REGULARIZED:
            assert check_triangle_confinement(profile).passed


def test_c06_speed_amplitude_relations():
    for eta_bar in np.linspace(0.0025, 0.5, 200):
        closed = speed_from_amplitude(float(eta_bar))
        series = speed_from_amplitude_series(float(eta_bar))
        assert abs(closed - series) <= 0.5 * eta_bar**4
    for c in np.linspace(1.001, 3.0, 200):
        eta0 = equilibria(WaveParams(float(c), 1.0, 0.0)).eta_tail
        assert froude_from_tail(eta0) == pytest.approx(float(c), rel=1e-12)
    for c in np.linspace(1.01, 1.4, 100):
        eta0 = equilibria(WaveParams(float(c), 1.0, 0.0)).eta_tail
        eta_bar = surface_elevation(solitary_amplitude(float(c))[0], float(c))
        assert eta0 < eta_bar


def test_c07_pde_carries_the_front(injected_wave):
    for name, (params, (shift, misfit, dx), _) in injected_wave.items():
        assert abs(shift - params.c * 1.0) <= 2.0 * dx, name
        assert misfit < 1e-2, name


@pytest.fixture(scope="module")
def c08_study():
    """The c08 error study: the CLI's c08 rows, then a 1e-6 row."""
    grid = Grid(-400.0, 400.0, 3200, "periodic")
    base = RunConfig("peregrine-dissipative", grid, SmoothedRiemann(0.5, 2.0),
                     0.025, 25.0, delta=1.0, epsilon=0.1,
                     snapshot_times=(5.0, 7.5, 10.0, 12.5, 15.0, 20.0, 25.0))
    # The 1e-6 row stands for the gain K0 of the tangent solution at epsilon = 0.
    return base, error_study(base, [0.1, 0.05, 0.02, 0.01, 1e-6])


def test_c08_deviation_scales_with_damping_and_time(c08_study):
    base, study = c08_study
    grid = base.grid
    init = make_initial(base.ic, grid)
    rest = FieldPair(np.zeros(grid.n), np.zeros(grid.n))
    ceiling = 0.1 * error_norm(init, rest, grid)

    gains = []
    for series in study.series:
        t, y = series.times, series.y
        mask = (t >= 5.0) & (t <= 25.0) & (y < ceiling)
        assert np.count_nonzero(mask) >= 4
        gains.append(np.median(y[mask] / (series.epsilon * t[mask])))
        for t_lo, t_hi in ((5.0, 10.0), (7.5, 15.0), (10.0, 20.0), (12.5, 25.0)):
            i = int(np.argmin(np.abs(t - t_lo)))
            j = int(np.argmin(np.abs(t - t_hi)))
            if mask[i] and mask[j]:
                ratio = y[j] / y[i]
                assert 1.5 <= ratio <= 2.5
    assert max(gains) / min(gains) <= 2.0

    # K(epsilon) = K0 + K1 epsilon + O(epsilon**2): the first-order slope is
    # bounded and settles monotonically as epsilon falls (measured -0.306,
    # -0.356, -0.396, -0.411).
    k0 = study.fits[-1].gain
    slopes = [(fit.gain - k0) / fit.epsilon for fit in study.fits[:-1]]
    assert all(-0.6 < s < -0.2 for s in slopes)
    assert np.all(np.diff(slopes) < 0.0)


def test_c08_error_series_take_no_csv_fallback(c08_study):
    # The error-study workload writes these series; write_csv's kernel must
    # certify every value, or each would cost a '%.17g' call of its own.
    for series in c08_study[1].series[:4]:
        values = np.column_stack([series.times, series.y]).ravel()
        assert not _decimal(values)[-1].any(), series.epsilon


def test_c09_conservation_and_convergence(injected_wave):
    grid = Grid(-400.0, 400.0, 3200, "periodic")
    cfg = RunConfig("peregrine-dissipative", grid, Gaussian(1.0, 10.0),
                    0.025, 10.0, delta=1.0, epsilon=0.1,
                    snapshot_times=(0.0, 10.0))
    start, end = evolve(cfg)
    m0 = discrete_mass(start, grid)
    assert abs(discrete_mass(end, grid) - m0) < 1e-10 * max(1.0, abs(m0))

    for name, (_, (_, coarse, _), (_, fine, _)) in injected_wave.items():
        assert coarse / fine >= 3.0, name


def test_c10_front_matches_classical_shock():
    eq = equilibria(WaveParams(1.2, 1.0, 0.0))
    grid = Grid(-100.0, 100.0, 2000, "periodic")
    x = grid.x
    state = FieldPair(np.where(x < 0.0, eq.eta_tail, 0.0),
                      np.where(x < 0.0, eq.u_tail, 0.0))
    cfg = RunConfig("shallow-water", grid, Gaussian(0.0, 1.0), 0.025, 40.0,
                    snapshot_times=(10.0, 20.0, 30.0, 40.0))
    snaps = evolve(cfg, initial=state)
    times = np.array([s.t for s in snaps])
    fronts = np.array([front_position(s, grid, eq.eta_tail / 2.0) for s in snaps])
    speed = np.polyfit(times, fronts, 1)[0]
    assert speed == pytest.approx(1.2, abs=0.02)

    last = snaps[-1]
    plateau = (x > fronts[-1] - 40.0) & (x < fronts[-1] - 10.0)
    assert np.max(np.abs(last.eta[plateau] - eq.eta_tail)) < 0.02 * eq.eta_tail
    assert np.max(np.abs(last.u[plateau] - eq.u_tail)) < 0.02 * eq.u_tail

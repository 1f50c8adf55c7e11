"""Profile integration: structure, invariants, and conserved budgets.

Two reference profiles are computed once per module: a monotone one
(c = 1.3, delta = 0.2, epsilon = 1.2, above the damping threshold) and an
oscillatory one (c = 2, delta = 0.5, epsilon = 0.3, well below it).
"""

import json
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from bore_lab import (
    IntegrationError,
    Profile,
    ProfileOptions,
    WaveParams,
    check_derivative_bounds,
    check_triangle_confinement,
    energy_identity_residual,
    equilibria,
    integrate_profile,
    load_profile_csv,
    lyapunov_backstep,
    manifold_seed,
    potential,
    saddle_eigenvalues,
    shape_report,
    solitary_amplitude,
    surface_elevation,
    tail_eigenvalues,
    vector_field,
    write_profile_csv,
    write_shape_report_json,
)
from bore_lab import traveling_wave
from bore_lab.cli import main
from bore_lab.config import preset_pairs
from bore_lab.waveform import (
    RealPair,
    critical_epsilon,
    dissipated_energy,
    lyapunov_value,
    restoring_coefficient,
)

MONO = WaveParams(1.3, 0.2, 1.2)
OSC = WaveParams(2.0, 0.5, 0.3)


@pytest.fixture(scope="module")
def mono_profile():
    return integrate_profile(MONO)


@pytest.fixture(scope="module")
def osc_profile():
    return integrate_profile(OSC)


@pytest.fixture(scope="module")
def mono_shape(mono_profile):
    return shape_report(mono_profile)


@pytest.fixture(scope="module")
def osc_shape(osc_profile):
    return shape_report(osc_profile)


def central_first(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# vector field and seed


def test_vector_field_fixed_points():
    du, dv = vector_field(0.0, 0.0, MONO)
    assert du == 0.0 and dv == 0.0
    eq = equilibria(MONO)
    du, dv = vector_field(eq.u_tail, 0.0, MONO)
    assert abs(du) == 0.0
    assert abs(dv) < 1e-14


def test_vector_field_is_potential_gradient():
    # dv/dxi must equal (epsilon v - G'(u)) / (delta c); G' taken by FD.
    params = WaveParams(1.7, 0.3, 0.5)
    dc = params.delta * params.c
    for u, v in ((0.2, -0.1), (0.8, 0.05), (1.1, 0.0)):
        du, dv = vector_field(u, v, params)
        assert du == pytest.approx(v / dc, rel=1e-14)
        g_prime = central_first(lambda w: potential(w, params), u)
        assert dv == pytest.approx((params.epsilon * v - g_prime) / dc, rel=1e-6)


def test_float_and_array_fields_agree(mono_profile, osc_profile):
    # The solver callbacks evaluate vector_field and _jacobian on floats,
    # shape_report on arrays; both paths must give the same doubles.
    for profile in (mono_profile, osc_profile):
        params = profile.params
        dc = params.delta * params.c
        v_span = float(np.max(np.abs(profile.v)))
        uu, vv = np.meshgrid(
            np.linspace(0.0, float(np.max(profile.u)), 17), np.linspace(-v_span, v_span, 9)
        )
        du_arr, dv_arr = vector_field(uu, vv, params)
        slope_arr = traveling_wave._force_slope(uu, params)
        for u, v, du, dv, slope in zip(
            *(a.ravel().tolist() for a in (uu, vv, du_arr, dv_arr, slope_arr))
        ):
            du_f, dv_f = vector_field(u, v, params)
            assert type(du_f) is float and type(dv_f) is float
            assert (du_f, dv_f) == (du, dv)
            jac = traveling_wave._jacobian(u, params)
            assert jac.tolist() == [[0.0, 1.0 / dc], [slope, params.epsilon / dc]]


def test_manifold_seed_geometry():
    eq = equilibria(MONO)
    lam_minus, _ = saddle_eigenvalues(MONO)
    seed = manifold_seed(MONO, 1e-8 * eq.u_tail)
    assert seed.u == pytest.approx(1e-8 * eq.u_tail)
    assert seed.v == pytest.approx(MONO.delta * MONO.c * lam_minus * seed.u, rel=1e-14)
    assert seed.v < 0.0
    # Negative Lyapunov level at the seed is what pins the orbit inside the
    # invariant triangle.
    assert lyapunov_value(seed.u, seed.v, MONO) < 0.0


def test_manifold_seed_offset_validation():
    eq = equilibria(MONO)
    with pytest.raises(ValueError):
        manifold_seed(MONO, 0.0)
    with pytest.raises(ValueError):
        manifold_seed(MONO, -1e-9)
    with pytest.raises(ValueError):
        manifold_seed(MONO, 0.02 * eq.u_tail)


def test_integrate_profile_rejects_zero_damping(mono_profile):
    with pytest.raises(ValueError):
        integrate_profile(WaveParams(1.3, 0.2, 0.0))
    with pytest.raises(ValueError, match="require epsilon > 0"):
        check_derivative_bounds(replace(mono_profile, params=WaveParams(1.3, 0.2, 0.0)))


@pytest.mark.parametrize(
    "rtol,atol",
    [(0.0, 1e-12), (-1e-10, 1e-12), (1e-10, 0.0), (math.nan, 1e-12), (math.inf, 1e-12),
     (1e-10, math.inf)],
)
def test_options_reject_nonpositive_tolerances(rtol, atol):
    with pytest.raises(ValueError):
        ProfileOptions(rtol=rtol, atol=atol)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(tail_tol=0.0),
        dict(tail_tol=-1e-8),
        dict(tail_tol=math.nan),
        dict(max_span=0.0),
        dict(max_span=math.inf),
        dict(max_span=math.nan),
    ],
)
def test_options_reject_bad_tail_tol_and_max_span(overrides):
    with pytest.raises(ValueError, match="positive and finite"):
        ProfileOptions(**overrides)


def test_exhausted_span_raises():
    with pytest.raises(IntegrationError, match="max_span"):
        integrate_profile(MONO, ProfileOptions(max_span=5.0))


def test_non_finite_field_fails_at_once(mono_profile, monkeypatch):
    # LSODA's error test compares NaN, so it accepts NaN steps; the sweep
    # must stop at the first NaN sample, not run on to max_span.
    field = traveling_wave.vector_field
    calls = []

    def poisoned(u, v, params):
        calls.append(None)
        return (math.nan, math.nan) if len(calls) > 300 else field(u, v, params)

    monkeypatch.setattr(traveling_wave, "vector_field", poisoned)
    with pytest.raises(IntegrationError, match="non-finite") as info:
        integrate_profile(MONO)
    xi = float(str(info.value).rsplit("= ", 1)[1])
    # It stops inside the span of the clean orbit, far short of max_span.
    assert -xi < mono_profile.xi[-1] - mono_profile.xi[0]


def test_orbit_at_the_singular_line_fails_at_once(monkeypatch):
    # A field that drives u up without bound, read backward in xi, carries
    # the orbit past u = c, where eta = u / (c - u) has no meaning.
    field = traveling_wave.vector_field
    calls = []

    def pushed(u, v, params):
        calls.append(None)
        return (-10.0, 0.0) if len(calls) > 300 else field(u, v, params)

    monkeypatch.setattr(traveling_wave, "vector_field", pushed)
    with pytest.raises(IntegrationError, match="singular line u = c"):
        integrate_profile(MONO)


def test_solver_failure_is_an_integration_error():
    # Tolerances far below the unit roundoff: LSODA refuses them as illegal
    # input at once, and no warning escapes.
    with pytest.raises(IntegrationError, match=r"LSODA failed before xi = -0\.\d+: Illegal input"):
        integrate_profile(MONO, ProfileOptions(rtol=1e-20, atol=1e-30))


# ---------------------------------------------------------------------------
# monotone profile anatomy


def test_mono_endpoints(mono_profile):
    eq = equilibria(MONO)
    assert abs(mono_profile.u[0] - eq.u_tail) < 1e-7
    assert abs(mono_profile.v[0]) < 1e-7
    assert mono_profile.u[-1] < 1e-7
    assert np.all(np.diff(mono_profile.xi) > 0.0)


def test_mono_profile_is_monotone(mono_profile, mono_shape):
    assert np.all(np.diff(mono_profile.u) < 0.0)
    assert mono_shape.regime_observed == "monotone"
    assert mono_shape.maxima == []
    assert mono_shape.minima == []
    assert mono_shape.tail_frequency is None


def test_mono_single_inflection(mono_profile, mono_shape):
    assert len(mono_shape.inflections) == 1
    xi_star = mono_shape.inflections[0]
    u_star = float(np.interp(xi_star, mono_profile.xi, mono_profile.u))
    eq = equilibria(MONO)
    assert 0.0 < u_star < eq.u_tail


def test_mono_front_crossing_at_origin(mono_profile):
    eq = equilibria(MONO)
    half = 0.5 * eq.u_tail
    s = mono_profile.u - half
    idx = np.nonzero(s[:-1] * s[1:] <= 0.0)[0]
    assert idx.size == 1
    i = idx[0]
    assert mono_profile.xi[i] <= 0.0 <= mono_profile.xi[i + 1]
    assert abs(np.interp(0.0, mono_profile.xi, mono_profile.u) - half) < 1e-4


def test_mono_tail_rates(mono_shape):
    lam_minus, _ = saddle_eigenvalues(MONO)
    tail = tail_eigenvalues(MONO)
    assert mono_shape.tail_decay_rate_plus == pytest.approx(lam_minus, rel=1e-2)
    assert mono_shape.tail_decay_rate_minus == pytest.approx(tail.minus, rel=1e-2)


def test_mono_triangle_confinement(mono_profile):
    res = check_triangle_confinement(mono_profile)
    assert res.passed
    assert res.worst >= -res.slack


def test_triangle_check_refuses_scaled_v(mono_profile):
    # v scaled by 1.05 leaves the triangle through its lower edge, whose
    # slope delta c Lambda_minus nothing else checks: an edge built from the
    # fast rate Lambda_plus would still let this orbit pass.
    res = check_triangle_confinement(replace(mono_profile, v=1.05 * mono_profile.v))
    assert not res.passed
    assert res.worst == pytest.approx(-2.1e-5, rel=0.05)


def test_mono_elevation_consistency(mono_profile):
    eta = mono_profile.u / (MONO.c - mono_profile.u)
    assert np.allclose(mono_profile.eta, eta, rtol=1e-15, atol=0.0)
    eq = equilibria(MONO)
    assert np.max(mono_profile.eta) <= eq.eta_tail * (1.0 + 1e-7)


# ---------------------------------------------------------------------------
# oscillatory profile anatomy


def test_osc_endpoints(osc_profile):
    eq = equilibria(OSC)
    assert abs(osc_profile.u[0] - eq.u_tail) < 1e-7
    assert osc_profile.u[-1] < 1e-7


def test_osc_extrema_alternate_and_order(osc_shape):
    assert osc_shape.regime_observed == "oscillatory"
    maxima, minima = osc_shape.maxima, osc_shape.minima
    assert len(maxima) >= 5 and len(minima) >= 5
    events = sorted(
        [(xi, u, "max") for xi, u in maxima] + [(xi, u, "min") for xi, u in minima]
    )
    kinds = [k for _, _, k in events]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))
    # Amplitudes shrink toward xi -> -inf: crest heights increase with xi,
    # trough depths decrease.
    mx = [u for _, u in maxima]
    mn = [u for _, u in minima]
    assert all(a < b for a, b in zip(mx, mx[1:]))
    assert all(a > b for a, b in zip(mn, mn[1:]))


def test_osc_extrema_straddle_tail_level(osc_shape):
    eq = equilibria(OSC)
    assert all(u > eq.u_tail for _, u in osc_shape.maxima)
    assert all(u < eq.u_tail for _, u in osc_shape.minima)


def test_osc_crest_below_solitary_bound(osc_profile):
    u_bar = solitary_amplitude(OSC.c)[0]
    assert np.max(osc_profile.u) < u_bar
    assert np.max(osc_profile.eta) < surface_elevation(u_bar, OSC.c)


def test_osc_tail_envelope_and_frequency(osc_shape):
    tail = tail_eigenvalues(OSC)
    lam_minus, _ = saddle_eigenvalues(OSC)
    assert osc_shape.tail_decay_rate_plus == pytest.approx(lam_minus, rel=1e-2)
    assert osc_shape.tail_decay_rate_minus == pytest.approx(tail.real, rel=2e-2)
    assert osc_shape.tail_frequency == pytest.approx(tail.imag, rel=2e-2)


def test_osc_features_agree_with_denser_sampling(osc_shape, monkeypatch):
    # The sampling does not steer the solver, so a 10x denser grid samples
    # the same orbit: features may move only by the interpolation error.
    monkeypatch.setattr(traveling_wave, "_STEP_FRACTION", 0.004)
    dense = shape_report(integrate_profile(OSC))
    for key in ("maxima", "minima"):
        a, b = np.array(getattr(osc_shape, key)), np.array(getattr(dense, key))
        assert a.shape == b.shape
        assert np.max(np.abs(a[:, 0] - b[:, 0])) < 3e-8
    a, b = np.array(osc_shape.inflections), np.array(dense.inflections)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) < 3e-8


def test_log_slope_matches_polyfit(mono_profile, osc_profile, monkeypatch):
    # The samples shape_report fits, read off its calls: the downstream
    # tail of both profiles, MONO's upstream tail and OSC's peak envelope.
    fits = []
    slope = traveling_wave._log_slope

    def recorded(x, y):
        fits.append((x, y))
        return slope(x, y)

    monkeypatch.setattr(traveling_wave, "_log_slope", recorded)
    for profile in (mono_profile, osc_profile):
        shape_report(profile)
    assert len(fits) == 4
    for x, y in fits:
        assert slope(x, y) == pytest.approx(np.polyfit(x, np.log(y), 1)[0], rel=1e-13, abs=0.0)


def test_profile_calls_no_numpy_lapack(mono_profile, osc_profile, mono_shape, osc_shape,
                                       tmp_path, monkeypatch):
    # np.polyfit is patched too: it binds numpy.linalg.lstsq at import, so
    # patching numpy.linalg alone would not see it.
    def refuse(*args, **kwargs):
        raise AssertionError("numpy LAPACK called")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in np.linalg.__all__:
        obj = getattr(np.linalg, name)
        if callable(obj) and not isinstance(obj, type):
            monkeypatch.setattr(np.linalg, name, refuse)
    assert shape_report(mono_profile) == mono_shape
    assert shape_report(osc_profile) == osc_shape
    assert main(["profile", "--preset", "fig6-c", "--out-dir", str(tmp_path)]) == 0


# The tail fits, branch by branch: each rate must be the log-slope of
# exactly the samples its branch selects.


def test_monotone_tail_fits_read_the_samples_below_the_ceiling(mono_profile, mono_shape):
    xi, u = mono_profile.xi, mono_profile.u
    u0 = equilibria(MONO).u_tail
    dev = np.abs(u - u0)
    down = (xi > 0.0) & (u > 0.0) & (u < 1e-3 * u0)
    up = (xi < 0.0) & (dev > 0.0) & (dev < 1e-3 * u0)
    assert np.count_nonzero(down) >= 4 and np.count_nonzero(up) >= 4
    assert mono_shape.tail_decay_rate_plus == traveling_wave._log_slope(xi[down], u[down])
    assert mono_shape.tail_decay_rate_minus == traveling_wave._log_slope(xi[up], dev[up])


@pytest.mark.parametrize("name", ["fig2", "fig5"])
def test_downstream_fit_widens_to_ten_times_the_ceiling(name):
    # A seed 2e-3 u_tail from the origin leaves fewer than 4 downstream
    # samples below 1e-3 u_tail, so the fit reads those below 1e-2 u_tail.
    params = WaveParams(*(preset_pairs(name)[k] for k in ("c", "delta", "epsilon")))
    u0 = equilibria(params).u_tail
    profile = integrate_profile(params, ProfileOptions(seed_offset=2e-3 * u0))
    xi, u = profile.xi, profile.u
    narrow = (xi > 0.0) & (u > 0.0) & (u < 1e-3 * u0)
    wide = (xi > 0.0) & (u > 0.0) & (u < 1e-2 * u0)
    assert np.count_nonzero(narrow) < 4 <= np.count_nonzero(wide)
    assert shape_report(profile).tail_decay_rate_plus == traveling_wave._log_slope(xi[wide], u[wide])


def test_single_crest_leaves_no_envelope_to_fit():
    # Just below the damping threshold one crest rises above the core cut:
    # the profile is oscillatory, but neither rate nor frequency is fitted.
    report = shape_report(integrate_profile(WaveParams(1.3, 0.2, 0.9 * critical_epsilon(1.3, 0.2))))
    assert report.regime_observed == "oscillatory"
    assert len(report.maxima) + len(report.minima) == 1
    assert report.tail_decay_rate_minus is None and report.tail_frequency is None


# Synthetic crest tables for the envelope fit, u_tail = 1 and tail_tol =
# 1e-8: deviations |u - 1|, maxima at the even positions, unevenly spaced
# in xi.  rate_picks are the crests the rate fits (None: no rate), and
# freq_picks the maxima whose mean spacing sets the frequency.
ENVELOPE_CASES = [
    pytest.param([0.06, 0.04, 0.03, 0.02, 0.01, 0.005, 1e-9], [1, 2, 3, 4, 5], [0, 2, 4],
                 id="ceiling-0.05"),
    pytest.param([0.25, 0.15, 0.12, 0.1, 0.04, 0.02], [1, 2, 3, 4, 5], [0, 2, 4], id="ceiling-0.2"),
    pytest.param([0.9, 0.6, 0.4, 0.15, 0.01], [0, 1, 2, 3, 4], [0, 2, 4], id="ceiling-inf"),
    pytest.param([0.3, 0.1, 0.04, 1e-9, 1e-10], [0, 1, 2], [0, 2, 4], id="three-peaks-all-maxima"),
    pytest.param([0.3, 1e-9, 1e-10], None, [0, 2], id="one-peak"),
    pytest.param([0.3, 1e-9], None, None, id="one-maximum"),
]


@pytest.mark.parametrize("deviations, rate_picks, freq_picks", ENVELOPE_CASES)
def test_envelope_fit_on_synthetic_crests(deviations, rate_picks, freq_picks):
    n = len(deviations)
    locs = np.cumsum(np.linspace(6.0, 9.0, n)) - 100.0
    crest = np.arange(n) % 2 == 0
    vals = np.where(crest, 1.0 + np.array(deviations), 1.0 - np.array(deviations))
    rate, freq = traveling_wave._fit_oscillatory_tail(locs, vals, crest, 1.0, 1e-8)
    if rate_picks is None:
        assert rate is None
    else:
        amps = np.abs(vals[rate_picks] - 1.0)
        assert rate == traveling_wave._log_slope(locs[rate_picks], amps)
    if freq_picks is None:
        assert freq is None
    else:
        assert freq == float(2.0 * math.pi / np.mean(np.diff(locs[freq_picks])))


@pytest.mark.parametrize("fixture", ["mono_profile", "osc_profile"])
def test_sampling_grid_does_not_steer_the_solver(fixture, request, monkeypatch):
    # LSODA's first step is aimed at max_span, not at the first sample, so
    # a 10x denser grid takes the very same steps.
    profile = request.getfixturevalue(fixture)
    monkeypatch.setattr(traveling_wave, "_STEP_FRACTION", 0.004)
    dense = integrate_profile(profile.params).solver
    record = profile.solver
    assert (dense.steps, dense.rhs_evals, dense.jac_evals) == (
        record.steps,
        record.rhs_evals,
        record.jac_evals,
    )


def test_osc_triangle_check_refuses(osc_profile):
    with pytest.raises(ValueError):
        check_triangle_confinement(osc_profile)


# ---------------------------------------------------------------------------
# invariants shared by both regimes


def test_lyapunov_never_increases_backward(mono_profile, osc_profile):
    assert lyapunov_backstep(mono_profile) < 1e-10
    assert lyapunov_backstep(osc_profile) < 1e-10


def test_derivative_bounds(mono_profile, osc_profile):
    for profile in (mono_profile, osc_profile):
        res = check_derivative_bounds(profile)
        assert res.passed
        assert res.worst >= -res.slack


@pytest.mark.parametrize(
    "params",
    [WaveParams(5.0, 0.5, 1.0), WaveParams(8.0, 0.5, 0.5), WaveParams(9.5, 0.5, 1.0),
     WaveParams(10.5, 0.5, 2.0)],
)
def test_derivative_bounds_at_large_speed(params):
    # From c ~ 10.25 on u_bar rounds to c, so the upper bound reads c/w.
    assert check_derivative_bounds(integrate_profile(params)).passed


def test_derivative_bounds_refuse_scaled_v_at_large_speed():
    # At (8, 0.5, 1) the bounds from the force are [-216, 2.0e10] around
    # max |v| = 29.7; the energy bound sqrt(2 delta c f(c)) = 33.8 is what
    # refuses v scaled by 1.2 (35.6).
    profile = integrate_profile(WaveParams(8.0, 0.5, 1.0))
    scaled = replace(profile, v=1.2 * profile.v)
    res = check_derivative_bounds(scaled)
    assert not res.passed
    bound = math.sqrt(2.0 * 0.5 * 8.0 * dissipated_energy(8.0))
    assert bound == pytest.approx(33.8, abs=0.05)
    assert res.worst == pytest.approx(bound - 1.2 * np.max(np.abs(profile.v)))


def polyline_self_intersections(x: np.ndarray, y: np.ndarray, max_points: int = 1500) -> int:
    """Count transversal self-intersections of a sampled planar curve.

    Decimates to at most max_points vertices, then checks every
    non-adjacent segment pair with a vectorized orientation test.  Confirms
    computed orbits are simple curves.
    """
    n = len(x)
    if n > max_points:
        idx = np.linspace(0, n - 1, max_points).astype(int)
        x, y = x[idx], y[idx]
        n = max_points
    p = np.column_stack([x, y])
    a = p[:-1]
    b = p[1:]
    m = len(a)

    def cross(o, d, q):
        return (d[..., 0] - o[..., 0]) * (q[..., 1] - o[..., 1]) - (
            d[..., 1] - o[..., 1]
        ) * (q[..., 0] - o[..., 0])

    count = 0
    chunk = 256
    for i0 in range(0, m, chunk):
        i1 = min(i0 + chunk, m)
        ai = a[i0:i1, None, :]
        bi = b[i0:i1, None, :]
        aj = a[None, :, :]
        bj = b[None, :, :]
        d1 = cross(ai, bi, aj)
        d2 = cross(ai, bi, bj)
        d3 = cross(aj, bj, ai)
        d4 = cross(aj, bj, bi)
        hit = (d1 * d2 < 0.0) & (d3 * d4 < 0.0)
        jj = np.arange(m)[None, :]
        ii = np.arange(i0, i1)[:, None]
        hit &= jj > ii + 1  # skip self and adjacent pairs, count each pair once
        count += int(np.count_nonzero(hit))
    return count


def test_no_phase_plane_self_crossings(mono_profile, osc_profile):
    for profile in (mono_profile, osc_profile):
        assert polyline_self_intersections(profile.u, profile.v) == 0


def test_self_intersection_counter_positive_control():
    x = np.array([0.0, 1.0, 1.0, 0.0])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    assert polyline_self_intersections(x, y) >= 1


def test_energy_identity_reference_profiles(mono_profile, osc_profile):
    assert energy_identity_residual(mono_profile) < 1e-4
    assert energy_identity_residual(osc_profile) < 1e-4


@pytest.mark.parametrize(
    "c,delta,epsilon",
    [(1.11, 1.0 / 3.0, 0.06), (1.5, 0.4, 2.0), (3.0, 0.5, 1.0)],
)
def test_energy_identity_across_regimes(c, delta, epsilon):
    profile = integrate_profile(WaveParams(c, delta, epsilon))
    assert energy_identity_residual(profile) < 1e-3


def test_dissipated_energy_scale_free(mono_profile):
    # The budget depends on c only; residual already uses dissipated_energy,
    # so check the absolute value once against the closed form.
    dc = MONO.delta * MONO.c
    du = mono_profile.v / dc
    burned = MONO.epsilon * np.trapezoid(du * du, mono_profile.xi)
    assert burned == pytest.approx(dissipated_energy(MONO.c), rel=1e-4)


# ---------------------------------------------------------------------------
# vanishing dispersion: the sample count follows the slow scales


def test_small_delta_profile_is_cheap_and_certified():
    params = WaveParams(1.3, 1e-3, 1.2)
    profile = integrate_profile(params)
    opts = profile.options
    assert profile.xi.size <= 20_000
    assert energy_identity_residual(profile) < 1e-3
    assert lyapunov_backstep(profile) <= 10.0 * (opts.rtol + opts.atol)
    assert check_derivative_bounds(profile).passed
    assert check_triangle_confinement(profile).passed


def test_sample_count_does_not_grow_as_delta_shrinks(mono_profile):
    wide = mono_profile.xi.size  # delta = 0.2
    narrow = integrate_profile(WaveParams(MONO.c, 0.02, MONO.epsilon)).xi.size
    assert max(wide, narrow) <= 1.5 * min(wide, narrow)


def test_sweep_takes_many_steps_between_samples():
    # Some samples of this orbit take more steps than the per-call cap
    # scipy sets by default (500); the sweep finishes all the same.
    record = integrate_profile(WaveParams(8.0, 0.5, 0.5)).solver
    assert record.steps > record.samples


# ---------------------------------------------------------------------------
# regime boundary


def test_regime_flip_across_damping_threshold():
    eps_star = critical_epsilon(1.3, 0.2)
    above = shape_report(integrate_profile(WaveParams(1.3, 0.2, 1.15 * eps_star)))
    below = shape_report(integrate_profile(WaveParams(1.3, 0.2, 0.85 * eps_star)))
    assert above.regime_observed == "monotone"
    assert below.regime_observed == "oscillatory"
    assert len(below.maxima) >= 1


# (c, delta, epsilon / epsilon*) just below the damping threshold epsilon*.
NEAR_THRESHOLD = [(1.05, 0.4, 0.99), (2.0, 0.05, 0.9999), (5.0, 2.0, 0.99)]


@pytest.mark.parametrize("c, delta, fraction", NEAR_THRESHOLD)
def test_sweep_ends_just_below_the_damping_threshold(c, delta, fraction):
    params = WaveParams(c, delta, fraction * critical_epsilon(c, delta))
    profile = integrate_profile(params)
    opts = profile.options
    assert energy_identity_residual(profile) < 1e-3
    assert lyapunov_backstep(profile) <= 10.0 * (opts.rtol + opts.atol)


def upstream_energy(profile, k):
    """2E / (delta c R) at sample k: the quantity the sweep stops on."""
    p = profile.params
    dcr = p.delta * p.c * restoring_coefficient(p.c)
    return (profile.u[k] - equilibria(p).u_tail) ** 2 + profile.v[k] ** 2 / dcr


@pytest.mark.parametrize("fixture", ["mono_profile", "osc_profile"])
def test_sweep_stops_at_the_first_low_energy_sample(fixture, request):
    profile = request.getfixturevalue(fixture)
    tol2 = profile.options.tail_tol ** 2
    assert upstream_energy(profile, 0) < tol2 <= upstream_energy(profile, 1)


# ---------------------------------------------------------------------------
# options, determinism, serialization


def test_integration_is_deterministic():
    a = integrate_profile(MONO)
    b = integrate_profile(MONO)
    assert np.array_equal(a.xi, b.xi)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.v, b.v)


def test_custom_seed_offset_converges_to_same_front(mono_profile):
    eq = equilibria(MONO)
    alt = integrate_profile(
        MONO, ProfileOptions(seed_offset=5e-7 * eq.u_tail)
    )
    assert alt.seed_offset == pytest.approx(5e-7 * eq.u_tail)
    # Different seeds slide along the same orbit; after the xi shift the
    # sampled fronts must agree.
    grid = np.linspace(-5.0, 5.0, 201)
    ua = np.interp(grid, mono_profile.xi, mono_profile.u)
    ub = np.interp(grid, alt.xi, alt.u)
    assert np.max(np.abs(ua - ub)) < 1e-6


@pytest.mark.parametrize("fixture", ["mono_profile", "osc_profile"])
def test_profile_ends_at_the_seed(fixture, request):
    profile = request.getfixturevalue(fixture)
    p = profile.params
    lam_minus, _ = saddle_eigenvalues(p)
    assert profile.u[-1] == profile.seed_offset
    assert profile.v[-1] == p.delta * p.c * lam_minus * profile.seed_offset


PRESET_TRIPLES = [
    pytest.param(WaveParams(*(preset_pairs(name)[k] for k in ("c", "delta", "epsilon"))),
                 id=name)
    for name in ("fig2", "fig5", "fig6-a", "fig6-b", "fig6-c", "fig9")
]
TAIL_TRIPLES = PRESET_TRIPLES + [
    pytest.param(WaveParams(1.3, delta, 1.2), id=f"stiff-{delta}") for delta in (0.08, 0.1, 0.12)
]


@pytest.mark.parametrize("params", TAIL_TRIPLES)
def test_downstream_rate_is_the_saddle_eigenvalue(params):
    # Every downstream sample lies on the stable manifold above the solver's
    # atol, so the fitted rate is lambda_minus to well below the 1e-2 checks.
    lam_minus, _ = saddle_eigenvalues(params)
    rate = shape_report(integrate_profile(params)).tail_decay_rate_plus
    assert rate == pytest.approx(lam_minus, rel=1e-4)


def test_solver_record_describes_the_samples(mono_profile, osc_profile, monkeypatch):
    for profile in (mono_profile, osc_profile):
        record = profile.solver
        assert record.method == "LSODA"
        assert record.samples == profile.xi.size
        assert record.xi_span == (profile.xi[0], profile.xi[-1])
        assert record.seed_offset == profile.seed_offset
        assert 0 < record.steps <= record.rhs_evals
        assert record.jac_evals >= 0

    # Every field evaluation of the sweep (LSODA's and the one that sizes
    # its first step) goes through vector_field, plus one call for the
    # slope at the half-upstream crossing: a counter wrapped around
    # vector_field reads the solver's rhs_evals.
    calls = []
    field = traveling_wave.vector_field

    def counted(*args):
        calls.append(None)
        return field(*args)

    monkeypatch.setattr(traveling_wave, "vector_field", counted)
    for params, profile in ((MONO, mono_profile), (OSC, osc_profile)):
        calls.clear()
        again = integrate_profile(params)
        assert again.solver == profile.solver
        assert len(calls) == again.solver.rhs_evals + 1


# ---------------------------------------------------------------------------
# the one-call sweep against the per-sample loop it replaced


def per_sample_sweep(params, seed, spacing, opts):
    """Reference: one scipy ode call per sample, stopping at the first one
    that meets the sweep's stop rule.

    Returns (xi, u, v, counts): the samples in sweep order, seed first, and
    ODEPACK's step, field (plus the first-step sizing) and Jacobian
    counters at the stop.
    """
    from scipy.integrate import ode

    def fun(t, y):
        return list(vector_field(*y.tolist(), params))

    def jac(t, y):
        return traveling_wave._jacobian(y.item(0), params)

    y0 = np.array([seed.u, seed.v])
    h0 = -traveling_wave._first_step(fun(0.0, y0), [seed.u, seed.v], opts.max_span, opts)
    solver = ode(fun, jac).set_integrator(
        "lsoda", rtol=opts.rtol, atol=opts.atol, first_step=h0, nsteps=2**31 - 1
    )
    solver.set_initial_value(y0, 0.0)
    u0 = equilibria(params).u_tail
    dcr = params.delta * params.c * restoring_coefficient(params.c)
    xis, us, vs = [0.0], [seed.u], [seed.v]
    for k in range(1, int(math.floor(opts.max_span / spacing)) + 1):
        xi = -k * spacing
        u, v = solver.integrate(xi).tolist()
        assert solver.get_return_code() > 0
        xis.append(xi)
        us.append(u)
        vs.append(v)
        if (u - u0) ** 2 + v * v / dcr < opts.tail_tol**2:
            break
    steps, rhs_evals, jac_evals = solver._integrator.iwork[10:13].tolist()
    return np.array(xis), np.array(us), np.array(vs), (steps, rhs_evals + 1, jac_evals)


def sweep_inputs(params, opts):
    """(seed, spacing, span) as integrate_profile hands them to _sweep."""
    offset = 1e-8 * equilibria(params).u_tail
    spacing = traveling_wave._STEP_FRACTION / traveling_wave._slow_rate(params)
    predicted = traveling_wave._predicted_span(params, offset, opts.tail_tol)
    span = min(traveling_wave._SPAN_MARGIN * predicted, opts.max_span)
    return manifold_seed(params, offset), spacing, span


@pytest.mark.parametrize("params", [MONO, OSC, WaveParams(5.0, 0.5, 1.0)],
                         ids=["mono", "osc", "large-c"])
def test_one_call_sweep_equals_the_per_sample_loop(params, monkeypatch):
    # Same LSODA, same first step, same tolerances and Jacobian: the samples
    # agree bitwise, and so do the counters of the one call at the stop.
    opts = ProfileOptions()
    seed, spacing, span = sweep_inputs(params, opts)
    lsoda, infos = traveling_wave._lsoda(), []

    def recorded(*args):
        y, info, istate = lsoda(*args)
        infos.append(info)
        return y, info, istate

    monkeypatch.setattr(traveling_wave, "_lsoda", lambda: recorded)
    xi, u, v, _ = traveling_wave._sweep(params, seed, spacing, span, opts)
    ref_xi, ref_u, ref_v, ref_counts = per_sample_sweep(params, seed, spacing, opts)
    assert len(infos) == 1
    assert np.array_equal(xi, ref_xi)
    assert np.array_equal(u, ref_u)
    assert np.array_equal(v, ref_v)
    # Row i of LSODA's counters belongs to output time i + 1; the stop
    # sample is output time xi.size - 1.
    stop = xi.size - 2
    info = infos[0]
    assert (info["nst"][stop], info["nfe"][stop] + 1, info["nje"][stop]) == ref_counts


@pytest.mark.parametrize("params", [MONO, WaveParams(5.0, 0.5, 1.0)], ids=["mono", "large-c"])
def test_compiled_lsoda_sweeps_as_public_odeint(params, monkeypatch):
    # The sweep's positional call of the compiled driver against the keyword
    # call of scipy.integrate.odeint it stands for, on fig2 (MONO) and a large
    # c: the same samples bit for bit and the same step, field and Jacobian
    # counters at every output time.
    import scipy.integrate

    opts = ProfileOptions()
    seed, spacing, span = sweep_inputs(params, opts)
    lsoda = traveling_wave._lsoda()

    def sweep(solver):
        infos = []

        def recorded(*args):
            y, info, istate = solver(*args)
            infos.append(info)
            return y, info, istate

        monkeypatch.setattr(traveling_wave, "_lsoda", lambda: recorded)
        return traveling_wave._sweep(params, seed, spacing, span, opts), infos

    def public(fun, y0, t, args, jac, col_deriv, ml, mu, full_output, rtol, atol, tcrit,
               h0, hmax, hmin, ixpr, mxstep, mxhnil, mxordn, mxords, tfirst):
        y, info = scipy.integrate.odeint(fun, y0, t, Dfun=jac, full_output=True, rtol=rtol,
                                         atol=atol, h0=h0, mxstep=mxstep, tfirst=True)
        assert info["message"] == "Integration successful."
        return y, info, 2

    (xi, u, v, counts), infos = sweep(lsoda)
    (ref_xi, ref_u, ref_v, ref_counts), ref_infos = sweep(public)
    assert np.array_equal(xi, ref_xi)
    assert np.array_equal(u, ref_u)
    assert np.array_equal(v, ref_v)
    assert counts == ref_counts
    assert len(infos) == len(ref_infos) == 1
    for key in ("nst", "nfe", "nje"):
        assert np.array_equal(infos[0][key], ref_infos[0][key])


def test_lsoda_failure_messages_are_scipys():
    from scipy.integrate import _odepack_py

    assert traveling_wave._LSODA_FAILURES == {k: _odepack_py._msgs[k] for k in range(-1, -9, -1)}


ROOT_TRIPLES = PRESET_TRIPLES + [
    pytest.param(WaveParams(*t), id="-".join(map(str, t))) for t in [(5, 0.5, 1), (8, 0.5, 0.5)]
]


def exact_root(y0, y1, d0, d1):
    """The root in [0, 1] of a monotone cubic Hermite p, in rationals, to 2**-100."""
    from fractions import Fraction

    y0, y1, d0, d1 = map(Fraction, (y0, y1, d0, d1))
    a = d0 + d1 - 2 * (y1 - y0)
    b = (y1 - y0) - d0 - a
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(100):
        mid = (lo + hi) / 2
        if (((a * mid + b) * mid + d0) * mid + y0) * y0 > 0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("params", ROOT_TRIPLES)
def test_hermite_roots_are_scipys(params, monkeypatch):
    # Every bracket of the front crossing, the crests and the inflections,
    # against the first root of scipy's CubicHermiteSpline on [0, 1].  Its
    # roots are eigenvalues of a companion matrix; where the two x differ,
    # they are neighbouring doubles and ours is the nearer to the exact root.
    from fractions import Fraction

    from scipy.interpolate import CubicHermiteSpline

    zeros, brackets = traveling_wave._zeros, []

    def recorded(x, y, dy, mask):
        out = zeros(x, y, dy, mask)
        brackets.append((x, y, dy) + out)
        return out

    monkeypatch.setattr(traveling_wave, "_zeros", recorded)
    prof = integrate_profile(params)
    report = shape_report(prof)
    assert len(brackets) == 3
    for x, y, dy, locs, i in brackets:
        h = x[i + 1] - x[i]
        y0, y1, d0, d1 = y[i], y[i + 1], h * dy[i], h * dy[i + 1]
        roots = CubicHermiteSpline([0.0, 1.0], np.stack([y0, y1]),
                                   np.stack([d0, d1])).roots(extrapolate=False)
        ref = x[i] + h * np.array([r[0] for r in roots])
        for k in np.flatnonzero(locs != ref):
            assert locs[k] == np.nextafter(ref[k], locs[k])
            exact = Fraction(x[i[k]]) + Fraction(h[k]) * exact_root(y0[k], y1[k], d0[k], d1[k])
            assert abs(Fraction(locs[k]) - exact) < abs(Fraction(ref[k]) - exact)
    # The crests' u: scipy's evaluation of the interpolant of (u, u').
    du, _ = vector_field(prof.u, prof.v, params)
    crests = sorted(report.maxima + report.minima)
    locs = np.array([loc for loc, _ in crests])
    assert [val for _, val in crests] == CubicHermiteSpline(prof.xi, prof.u, du)(locs).tolist()
    # hermite_interpolate, which carries profiles into the PDE: scipy's
    # values on the sampled span, knots and both ends included, and the end
    # values beyond it.
    xi = prof.xi
    q = np.concatenate([[xi[0] - 5.0], np.linspace(xi[0], xi[-1], 1001), xi[::7], [xi[-1] + 5.0]])
    held = CubicHermiteSpline(xi, prof.u, du)(np.clip(q, xi[0], xi[-1]))
    assert traveling_wave.hermite_interpolate(xi, prof.u, du, q).tolist() == held.tolist()


@pytest.mark.parametrize("roots", [(0.2, 0.5, 0.8), (0.3, 0.6, 0.95), (0.3, 0.31, 0.32)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_hermite_root_is_the_smallest_of_three(roots, sign):
    # p = sign (t - r0)(t - r1)(t - r2) has three roots in its one bracket.
    def p(t):
        return sign * (t - roots[0]) * (t - roots[1]) * (t - roots[2])

    def dp(t):
        return sign * sum(math.prod(t - r for r in roots if r is not s) for s in roots)

    x, dy = np.array([0.0, 1.0]), np.array([dp(0.0), dp(1.0)])
    zeros, i = traveling_wave._zeros(x, np.array([p(0.0), p(1.0)]), dy, np.ones(2, dtype=bool))
    assert i.tolist() == [0]
    assert zeros[0] == pytest.approx(roots[0], abs=1e-12)


def test_rerun_from_a_short_span_gives_the_same_profile(mono_profile, monkeypatch):
    # Half the predicted span ends before the stop; the reruns from the seed
    # sample the same orbit and only add work.
    monkeypatch.setattr(traveling_wave, "_SPAN_MARGIN", 0.5)
    rerun = integrate_profile(MONO)
    for name in ("xi", "u", "v", "eta"):
        assert np.array_equal(getattr(rerun, name), getattr(mono_profile, name))
    assert rerun.solver.samples == mono_profile.solver.samples
    assert rerun.solver.steps > mono_profile.solver.steps


def fail_from(fail_at, monkeypatch):
    """Make LSODA fail at output time fail_at of any longer grid, its rows
    from there on holding a state that would meet the stop rule."""
    lsoda = traveling_wave._lsoda()

    def failing(func, y0, t, *args):
        y, info, istate = lsoda(func, y0, t, *args)
        if len(t) > fail_at:
            y[fail_at:] = [equilibria(MONO).u_tail, 0.0]
            istate = -4  # repeated error test failures
        return y, info, istate

    monkeypatch.setattr(traveling_wave, "_lsoda", lambda: failing)


def test_solver_failure_past_the_stop_leaves_the_profile(mono_profile, monkeypatch):
    fail_from(mono_profile.solver.samples + 50, monkeypatch)
    profile = integrate_profile(MONO)
    for name in ("xi", "u", "v"):
        assert np.array_equal(getattr(profile, name), getattr(mono_profile, name))


def test_solver_failure_before_the_stop_names_its_sample(monkeypatch):
    # The rows from the failure on are never read: their state would stop
    # the sweep.
    fail_from(20, monkeypatch)
    spacing = traveling_wave._STEP_FRACTION / traveling_wave._slow_rate(MONO)
    with pytest.raises(IntegrationError, match="Repeated error test failures") as info:
        integrate_profile(MONO)
    assert f"before xi = {-20 * spacing}:" in str(info.value)


def test_reruns_stay_within_the_sample_budget(monkeypatch):
    lsoda, grids = traveling_wave._lsoda(), []

    def recorded(func, y0, t, *args):
        grids.append(len(t))
        return lsoda(func, y0, t, *args)

    monkeypatch.setattr(traveling_wave, "_lsoda", lambda: recorded)
    monkeypatch.setattr(traveling_wave, "_SPAN_MARGIN", 0.05)
    monkeypatch.setattr(traveling_wave, "MAX_PROFILE_SAMPLES", 200)
    with pytest.raises(IntegrationError, match="MAX_PROFILE_SAMPLES = 200 samples"):
        integrate_profile(MONO)
    # Seed, samples and the last output time.
    assert len(grids) > 1 and max(grids) <= 200 + 2


NEAR_THRESHOLD_TRIPLES = [
    pytest.param(WaveParams(1.3, 0.2, fraction * critical_epsilon(1.3, 0.2)),
                 id=f"1.3-0.2-{fraction}") for fraction in (0.85, 1.15)
] + [
    pytest.param(WaveParams(c, delta, fraction * critical_epsilon(c, delta)),
                 id=f"{c}-{delta}-{fraction}") for c, delta, fraction in NEAR_THRESHOLD
]


@pytest.mark.parametrize("params", TAIL_TRIPLES + NEAR_THRESHOLD_TRIPLES)
def test_predicted_span_matches_the_sweep(params):
    # The closed-form span, before its margin, is what the sample budget
    # and the sweep's first call rely on.
    profile = integrate_profile(params)
    spacing = traveling_wave._STEP_FRACTION / traveling_wave._slow_rate(params)
    predicted = traveling_wave._predicted_span(params, profile.seed_offset,
                                               profile.options.tail_tol) / spacing
    assert 0.8 <= profile.solver.samples / predicted <= 1.2


def test_sweep_over_the_sample_budget_is_refused():
    # The spiral decays at epsilon / (2 delta c) ~ 2e-4: millions of samples.
    with pytest.raises(ValueError, match="MAX_PROFILE_SAMPLES = 2097152"):
        integrate_profile(WaveParams(1.3, 0.2, 1e-4), ProfileOptions(max_span=1e6))
    # max_span bounds the sweep before the budget does.
    with pytest.raises(IntegrationError, match="max_span = 2000"):
        integrate_profile(WaveParams(1.3, 0.2, 1e-4))


def test_sweep_predicted_to_overrun_max_span_fails_at_once(monkeypatch):
    # The predicted span, about 91,000, is 45 times the default max_span:
    # the sweep is refused before the solver runs, not after 80k samples.
    def refused():
        raise AssertionError("LSODA loaded")

    monkeypatch.setattr(traveling_wave, "_lsoda", refused)
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match=r"max_span = 2000\.0: .* about 9\.1e\+04"):
        integrate_profile(WaveParams(1.3, 0.2, 1e-4))
    assert time.perf_counter() - start < 0.05


def test_profile_csv_round_trip(tmp_path, mono_profile):
    # Every written row reads back bit for bit as the sample it came from.
    path = tmp_path / "profile.csv"
    write_profile_csv(mono_profile, path)
    header = path.read_text().splitlines()[0]
    assert header == "xi,u,v,eta"
    data = load_profile_csv(path)
    kept = traveling_wave.csv_rows(mono_profile)
    for name in ("xi", "u", "v", "eta"):
        assert np.array_equal(data[name], getattr(mono_profile, name)[kept])


def distance_to_equilibria(profile):
    """d of csv_rows: distance to the nearer equilibrium over u_tail."""
    p = profile.params
    u0 = equilibria(p).u_tail
    dcr = p.delta * p.c * restoring_coefficient(p.c)
    upstream = np.sqrt((profile.u - u0) ** 2 + profile.v ** 2 / dcr)
    return np.minimum(upstream, np.abs(profile.u) + np.abs(profile.v)) / u0


def documented_rows(profile):
    """The rows profile.csv keeps, by csv_rows' rule, one sample at a time."""
    n = profile.xi.size
    rows = []
    for i, d in enumerate(distance_to_equilibria(profile).tolist()):
        ratio = min(max((d / 1e-2) ** -0.25, 1.0), 8.0) if d > 0.0 else 8.0
        stride = 2 ** int(math.log2(ratio))
        if i == 0 or (n - 1 - i) % stride == 0:
            rows.append(i)
    return rows


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """params -> (profile, its profile.csv), each integrated and written once."""
    cache = {}

    def get(params):
        if params not in cache:
            profile = integrate_profile(params)
            path = tmp_path_factory.mktemp("csv") / "profile.csv"
            write_profile_csv(profile, path)
            cache[params] = profile, path
        return cache[params]

    return get


# Long large-c sweeps with many crests: (8, 0.5, 0.5) takes 46,320 samples.
LONG_TRIPLES = [pytest.param(WaveParams(c, 0.5, eps), id=f"{c}-0.5-{eps}")
                for c, eps in ((5.0, 1.0), (8.0, 0.5))]


@pytest.mark.parametrize("params", TAIL_TRIPLES + NEAR_THRESHOLD_TRIPLES + LONG_TRIPLES)
def test_profile_csv_writes_the_documented_rows(params, written):
    profile, path = written(params)
    kept = traveling_wave.csv_rows(profile)
    rows = documented_rows(profile)
    assert kept.tolist() == rows
    table = np.column_stack([profile.xi, profile.u, profile.v, profile.eta])[kept]
    assert path.read_text().splitlines() == ["xi,u,v,eta"] + [
        ",".join("%.17g" % x for x in row) for row in table.tolist()]
    # The core keeps the sweep's spacing; the stop sample and the seed
    # are written; no gap exceeds the stride cap.
    core = np.flatnonzero(distance_to_equilibria(profile) >= 1e-2)
    assert set(core.tolist()) <= set(rows)
    assert rows[0] == 0 and rows[-1] == profile.xi.size - 1
    assert np.max(np.diff(kept)) <= 8
    assert kept.size < profile.xi.size


def flat_profile(params, u, n):
    """n samples at (u, 0): a Profile whose every sample has one d."""
    return Profile(params=params, xi=np.arange(float(n)), u=np.full(n, u), v=np.zeros(n),
                   eta=np.zeros(n), seed_offset=1e-8 * equilibria(params).u_tail)


def around_level(params, u, level):
    """The u whose d, at v = 0, lies on level (when a double lands there)
    and one ulp below and above it, as (u, d) pairs; u a first guess."""
    def d(u):
        return float(distance_to_equilibria(flat_profile(params, u, 1))[0])

    # d grows with u on both sides searched, so walk u to the last d <= level.
    while d(u) > level:
        u = np.nextafter(u, -np.inf)
    while d(np.nextafter(u, np.inf)) <= level:
        u = np.nextafter(u, np.inf)
    us = [np.nextafter(u, -np.inf), u, np.nextafter(u, np.inf)]
    if d(u) < level:
        us = us[1:]
    return [(u, d(u)) for u in us]


@pytest.mark.parametrize("side", ["upstream", "downstream"])
def test_thinning_strides_at_the_level_boundaries(side):
    # The stride is the largest power of two at most (d / 1e-2)**(-1/4),
    # capped at 8, with d on a level 1e-2 / 16**j counting as at or above it:
    # 2**j at or just below the level, 2**(j - 1) just above it.
    params = MONO
    u0 = equilibria(params).u_tail
    n = 17
    for j in (1, 2, 3):
        level = 1e-2 / 16.0**j
        guess = u0 * (1.0 + level) if side == "upstream" else level * u0
        for u, d in around_level(params, guess, level):
            stride = 2**j if d <= level else 2 ** (j - 1)
            kept = traveling_wave.csv_rows(flat_profile(params, u, n)).tolist()
            # Sample i is k = n - 1 - i from the seed; the first row always.
            assert kept == [0] + [i for i in range(1, n) if (n - 1 - i) % stride == 0], (u, d)


@pytest.mark.parametrize("params", TAIL_TRIPLES + NEAR_THRESHOLD_TRIPLES)
def test_certificates_hold_on_the_written_rows(params, written):
    profile, path = written(params)
    reloaded = Profile(params=params, seed_offset=profile.seed_offset, **load_profile_csv(path))
    allowance = 10.0 * (profile.options.rtol + profile.options.atol)
    assert lyapunov_backstep(reloaded) <= allowance
    assert check_derivative_bounds(reloaded).passed
    if isinstance(tail_eigenvalues(params), RealPair):
        assert check_triangle_confinement(reloaded).passed
    # The end-corrected trapezoid reads the thinned rows to the full grid's digits.
    assert abs(energy_identity_residual(reloaded) - energy_identity_residual(profile)) <= 1e-10


def test_shape_report_json(tmp_path, osc_shape):
    path = tmp_path / "shape.json"
    write_shape_report_json(osc_shape, path)
    loaded = json.loads(path.read_text())
    assert loaded["regime_observed"] == "oscillatory"
    assert len(loaded["maxima"]) == len(osc_shape.maxima)
    assert loaded["tail_frequency"] == pytest.approx(osc_shape.tail_frequency)
    assert set(asdict(osc_shape)) == set(loaded)


@pytest.mark.parametrize("preset", ["fig6-c", "fig2"])
def test_shape_report_json_bytes(tmp_path, preset):
    # One oscillatory preset with a long extrema ladder, one monotone.
    params = WaveParams(*(preset_pairs(preset)[k] for k in ("c", "delta", "epsilon")))
    profile = integrate_profile(params)
    report = shape_report(profile)
    assert bool(report.maxima) == (preset == "fig6-c")
    path = tmp_path / "shape.json"
    write_shape_report_json(report, path, profile.solver)
    expected = json.dumps({**asdict(report), "solver": asdict(profile.solver)}, indent=2)
    assert path.read_text() == expected + "\n"

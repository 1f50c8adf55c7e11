"""Profile integration: structure, invariants, and conserved budgets.

Two reference profiles are computed once per module: a monotone one
(c = 1.3, delta = 0.2, epsilon = 1.2, above the damping threshold) and an
oscillatory one (c = 2, delta = 0.5, epsilon = 0.3, well below it).
"""

import json
import math

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
    polyline_self_intersections,
    potential,
    saddle_eigenvalues,
    shape_report,
    shape_report_dict,
    solitary_amplitude,
    surface_elevation,
    tail_eigenvalues,
    vector_field,
    write_profile_csv,
    write_shape_report_json,
)
from bore_lab import traveling_wave
from bore_lab.config import preset_pairs
from bore_lab.waveform import critical_epsilon, dissipated_energy, lyapunov_value

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


def test_integrate_profile_rejects_zero_damping():
    with pytest.raises(ValueError):
        integrate_profile(WaveParams(1.3, 0.2, 0.0))


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
    spec = tail_eigenvalues(MONO)
    assert mono_shape.tail_decay_rate_plus == pytest.approx(lam_minus, rel=1e-2)
    assert mono_shape.tail_decay_rate_minus == pytest.approx(spec.tail.minus, rel=1e-2)


def test_mono_triangle_confinement(mono_profile):
    res = check_triangle_confinement(mono_profile)
    assert res.passed
    assert res.worst >= -res.slack


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
    u_bar = solitary_amplitude(OSC.c)
    assert np.max(osc_profile.u) < u_bar
    assert np.max(osc_profile.eta) < surface_elevation(u_bar, OSC.c)


def test_osc_tail_envelope_and_frequency(osc_shape):
    spec = tail_eigenvalues(OSC)
    lam_minus, _ = saddle_eigenvalues(OSC)
    assert osc_shape.tail_decay_rate_plus == pytest.approx(lam_minus, rel=1e-2)
    assert osc_shape.tail_decay_rate_minus == pytest.approx(spec.tail.real, rel=2e-2)
    assert osc_shape.tail_frequency == pytest.approx(spec.tail.imag, rel=2e-2)


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


# ---------------------------------------------------------------------------
# regime boundary


def test_regime_flip_across_damping_threshold():
    eps_star = critical_epsilon(1.3, 0.2)
    above = shape_report(integrate_profile(WaveParams(1.3, 0.2, 1.15 * eps_star)))
    below = shape_report(integrate_profile(WaveParams(1.3, 0.2, 0.85 * eps_star)))
    assert above.regime_observed == "monotone"
    assert below.regime_observed == "oscillatory"
    assert len(below.maxima) >= 1


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


TAIL_TRIPLES = [
    pytest.param(WaveParams(*(preset_pairs(name)[k] for k in ("c", "delta", "epsilon"))),
                 id=name)
    for name in ("fig2", "fig5", "fig6-a", "fig6-b", "fig6-c", "fig9")
] + [pytest.param(WaveParams(1.3, delta, 1.2), id=f"stiff-{delta}") for delta in (0.08, 0.1, 0.12)]


@pytest.mark.parametrize("params", TAIL_TRIPLES)
def test_downstream_rate_is_the_saddle_eigenvalue(params):
    # Every downstream sample lies on the stable manifold above the solver's
    # atol, so the fitted rate is lambda_minus to well below the 1e-2 checks.
    lam_minus, _ = saddle_eigenvalues(params)
    rate = shape_report(integrate_profile(params)).tail_decay_rate_plus
    assert rate == pytest.approx(lam_minus, rel=1e-4)


def test_solver_record_describes_the_samples(mono_profile, osc_profile):
    for profile, stop in ((mono_profile, "tail_tol"), (osc_profile, "shrinking_peaks")):
        record = profile.solver
        assert record.method == "LSODA"
        assert record.stop == stop
        assert record.samples == profile.xi.size
        assert record.xi_span == (profile.xi[0], profile.xi[-1])
        assert record.seed_offset == profile.seed_offset
        assert 0 < record.steps <= record.rhs_evals
        assert record.jac_evals >= 0


def test_profile_csv_round_trip(tmp_path, mono_profile):
    path = tmp_path / "profile.csv"
    write_profile_csv(mono_profile, path)
    header = path.read_text().splitlines()[0]
    assert header == "xi,u,v,eta"
    data = load_profile_csv(path)
    assert np.array_equal(data["xi"], mono_profile.xi)
    assert np.array_equal(data["u"], mono_profile.u)
    assert np.array_equal(data["v"], mono_profile.v)
    assert np.array_equal(data["eta"], mono_profile.eta)


def test_shape_report_json(tmp_path, osc_shape):
    path = tmp_path / "shape.json"
    write_shape_report_json(osc_shape, path)
    loaded = json.loads(path.read_text())
    assert loaded["regime_observed"] == "oscillatory"
    assert len(loaded["maxima"]) == len(osc_shape.maxima)
    assert loaded["tail_frequency"] == pytest.approx(osc_shape.tail_frequency)
    d = shape_report_dict(osc_shape)
    assert set(d) == set(loaded)

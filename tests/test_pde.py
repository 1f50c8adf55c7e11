"""Semidiscrete operators against Fourier/closed-form oracles, then the
time stepper's conservation and validation behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bore_lab.csvio import write_csv
from bore_lab.errors import ConfigError, NumericsError
from bore_lab.pde import (
    _checked,
    FieldPair,
    Gaussian,
    Grid,
    RunConfig,
    SmoothedRiemann,
    cfl_bound,
    discrete_mass,
    energy_functional,
    error_norm,
    error_study,
    evolve,
    first_difference,
    front_position,
    helmholtz_apply_inverse,
    make_initial,
    sample_profile_on_grid,
    second_difference,
    semidiscrete_rhs_peregrine,
    shallow_water_shock_reference,
    shape_misfit,
    snapshot_manifest,
    step,
    write_error_series_csv,
    write_snapshot_csv,
)
from bore_lab.traveling_wave import integrate_profile
from bore_lab.waveform import WaveParams


def periodic_grid(n=256):
    return Grid(0.0, 2.0 * math.pi, n, "periodic")


def right_going_shock(grid):
    """Exact classical shock data for c = 1.2, front at x = 0."""
    eta0, u0, c = shallow_water_shock_reference(1.2)
    x = grid.x
    eta = np.where(x < 0.0, eta0, 0.0)
    u = np.where(x < 0.0, u0, 0.0)
    return FieldPair(eta, u), eta0, u0, c


# ---- grid and state containers ----------------------------------------


def test_grid_spacing_and_nodes():
    g = periodic_grid(64)
    assert g.dx == pytest.approx(2.0 * math.pi / 64, rel=1e-15)
    assert g.x[0] == 0.0
    assert g.x[-1] == pytest.approx(2.0 * math.pi - g.dx, rel=1e-14)


def test_reflective_grid_uses_cell_centers():
    g = Grid(0.0, 8.0, 32, "reflective")
    assert g.x[0] == pytest.approx(0.5 * g.dx)
    assert g.x[-1] == pytest.approx(8.0 - 0.5 * g.dx)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(1.0, 1.0, 64)
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 64, "absorbing")


def test_field_pair_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        FieldPair(np.zeros(8), np.zeros(9))


# ---- initial data ------------------------------------------------------


def test_gaussian_initial_values():
    g = Grid(-400.0, 400.0, 3200, "periodic")
    state = make_initial(Gaussian(1.0, 10.0), g)
    i0 = np.argmin(np.abs(g.x))
    assert g.x[i0] == 0.0
    assert state.eta[i0] == 1.0
    iw = np.argmin(np.abs(g.x - 10.0))
    assert state.eta[iw] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert np.all(state.u == 0.0)
    assert state.t == 0.0


def test_riemann_initial_limits_and_midpoint():
    g = Grid(-400.0, 400.0, 3200, "periodic")
    state = make_initial(SmoothedRiemann(0.5, 2.0), g)
    assert state.eta[0] == pytest.approx(0.5, abs=1e-12)
    assert state.eta[-1] == pytest.approx(0.0, abs=1e-12)
    i0 = np.argmin(np.abs(g.x))
    assert state.eta[i0] == pytest.approx(0.25, rel=1e-12)
    assert np.all(np.diff(state.eta) <= 0.0)


@pytest.mark.parametrize(
    "ic",
    [
        SmoothedRiemann(-1.0, 2.0),
        SmoothedRiemann(0.5, 0.0),
        Gaussian(-1.0, 10.0),
        Gaussian(0.5, -3.0),
        SmoothedRiemann(math.nan, 2.0),
        SmoothedRiemann(math.inf, 2.0),
        Gaussian(math.nan, 10.0),
        Gaussian(math.inf, 10.0),
    ],
)
def test_initial_condition_validation(ic):
    with pytest.raises(ConfigError):
        make_initial(ic, periodic_grid())


# ---- difference operators ----------------------------------------------


def test_first_difference_fourth_order():
    errs = []
    for n in (64, 128):
        g = periodic_grid(n)
        err = np.max(np.abs(first_difference(np.sin(g.x), g) - np.cos(g.x)))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)


def test_second_difference_second_order():
    errs = []
    for n in (64, 128):
        g = periodic_grid(n)
        err = np.max(np.abs(second_difference(np.sin(g.x), g) + np.sin(g.x)))
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_reflective_closure_matches_symmetry():
    # cos(pi x / L) is even about both walls, sin(pi x / L) odd.
    length = 8.0
    g = Grid(0.0, length, 512, "reflective")
    k = math.pi / length
    even = np.cos(k * g.x)
    odd = np.sin(k * g.x)
    d_even = first_difference(even, g, parity=1)
    d_odd = first_difference(odd, g, parity=-1)
    assert np.max(np.abs(d_even + k * np.sin(k * g.x))) < 1e-7
    assert np.max(np.abs(d_odd - k * np.cos(k * g.x))) < 1e-7


@pytest.mark.parametrize("boundary", ["reflective", "periodic"])
@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("delta", [0.5, 0.0])
def test_batched_operators_match_row_by_row(boundary, parity, delta):
    # An (m, n) batch is m runs on one grid: each row must come out exactly
    # as the 1-D call on that row would, mirror closure included.
    g = Grid(-10.0, 10.0, 200, boundary)
    rows = np.random.default_rng(7).standard_normal((3, g.n))
    d1 = first_difference(rows, g, parity=parity)
    d2 = second_difference(rows, g, parity=parity)
    z = helmholtz_apply_inverse(rows, delta, g)
    assert d1.shape == d2.shape == z.shape == rows.shape
    for i, row in enumerate(rows):
        assert np.array_equal(d1[i], first_difference(row, g, parity=parity))
        assert np.array_equal(d2[i], second_difference(row, g, parity=parity))
        assert np.array_equal(z[i], helmholtz_apply_inverse(row, delta, g))


def test_difference_of_constant_vanishes():
    g = periodic_grid(64)
    c = np.full(64, 1.7)
    assert np.max(np.abs(first_difference(c, g))) < 1e-13
    assert np.max(np.abs(second_difference(c, g))) < 1e-13


# ---- Helmholtz solve ---------------------------------------------------


def test_helmholtz_fourier_symbol():
    # On a periodic grid the operator acts on cos(kx) by the scalar
    # 1 + delta * (4/dx^2) sin^2(k dx / 2).
    g = periodic_grid(128)
    delta = 0.7
    for k in (1, 3, 10):
        mode = np.cos(k * g.x)
        symbol = 1.0 + delta * (4.0 / g.dx**2) * math.sin(0.5 * k * g.dx) ** 2
        z = helmholtz_apply_inverse(symbol * mode, delta, g)
        assert np.max(np.abs(z - mode)) < 1e-12


@pytest.mark.parametrize("boundary", ["periodic", "reflective"])
def test_helmholtz_residual(boundary):
    g = Grid(-10.0, 10.0, 200, boundary)
    rng = np.random.default_rng(42)
    rhs = rng.standard_normal(g.n)
    delta = 0.5
    z = helmholtz_apply_inverse(rhs, delta, g)
    resid = z - delta * second_difference(z, g, parity=-1) - rhs
    assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(rhs))


def test_helmholtz_zero_delta_is_identity():
    g = periodic_grid(64)
    rhs = np.sin(g.x)
    z = helmholtz_apply_inverse(rhs, 0.0, g)
    assert np.array_equal(z, rhs)
    z[0] = 99.0
    assert rhs[0] != 99.0  # returned a copy, not a view


def test_helmholtz_validation():
    g = periodic_grid(64)
    with pytest.raises(ValueError):
        helmholtz_apply_inverse(np.zeros(64), -0.1, g)
    with pytest.raises(ValueError):
        helmholtz_apply_inverse(np.zeros(65), 0.5, g)
    with pytest.raises(ValueError):
        helmholtz_apply_inverse(np.zeros((2, 2, 64)), 0.5, g)


# ---- semidiscrete rates ------------------------------------------------


def test_rest_state_has_zero_rates():
    g = periodic_grid(64)
    state = FieldPair(np.zeros(64), np.zeros(64))
    eta_t, u_t = semidiscrete_rhs_peregrine(state.eta, state.u, 1.0, 0.1, g)
    assert np.all(eta_t == 0.0)
    assert np.all(u_t == 0.0)


def test_mass_equation_rate_matches_exact_flux():
    # With eta = 0 and u = a sin x the mass rate is -d(u)/dx = -a cos x.
    g = periodic_grid(256)
    a = 0.1
    state = FieldPair(np.zeros(g.n), a * np.sin(g.x))
    eta_t, _ = semidiscrete_rhs_peregrine(state.eta, state.u, 1.0, 0.0, g)
    assert np.max(np.abs(eta_t + a * np.cos(g.x))) < 1e-8


def test_momentum_rate_satisfies_helmholtz_equation():
    # u_t solves (I - delta D2) u_t = -D1 eta - u D1 u + eps D2 u; check the
    # defining equation directly instead of re-deriving the solve.
    g = periodic_grid(256)
    delta, eps = 0.8, 0.2
    state = FieldPair(0.1 * np.cos(g.x), 0.05 * np.sin(2.0 * g.x))
    _, u_t = semidiscrete_rhs_peregrine(state.eta, state.u, delta, eps, g)
    lhs = u_t - delta * second_difference(u_t, g, parity=-1)
    rhs = (
        -first_difference(state.eta, g, parity=1)
        - state.u * first_difference(state.u, g, parity=-1)
        + eps * second_difference(state.u, g, parity=-1)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_vacuum_state_raises():
    g = periodic_grid(64)
    state = FieldPair(np.full(64, -1.5), np.zeros(64))
    with pytest.raises(NumericsError, match="vacuum"):
        semidiscrete_rhs_peregrine(state.eta, state.u, 1.0, 0.1, g)


def test_rhs_grid_mismatch():
    with pytest.raises(ValueError):
        semidiscrete_rhs_peregrine(np.zeros(64), np.zeros(64), 1.0, 0.0, periodic_grid(128))


def composed_rate(eta, u, delta, epsilon, grid):
    """The Peregrine rate from the public operators, one call per term."""
    eta_t = first_difference((-1.0 - eta) * u, grid, parity=-1)
    forcing = first_difference(u, grid, parity=-1)
    forcing *= u
    forcing += first_difference(eta, grid, parity=1)
    np.negative(forcing, out=forcing)
    if np.any(epsilon != 0.0):
        forcing += epsilon * second_difference(u, grid, parity=-1)
    return eta_t, helmholtz_apply_inverse(forcing, delta, grid)


@pytest.mark.parametrize("boundary", ["periodic", "reflective"])
@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("delta", [0.5, 0.0])
def test_stage_rate_equals_composed_operators(boundary, batch, delta):
    # The fused stage must give the composed rate bit for bit, and what it
    # returns must not alias the workspace that the next call reuses.
    g = Grid(-10.0, 10.0, 200, boundary)
    rng = np.random.default_rng(5)
    shape = (3, g.n) if batch else (g.n,)
    eta, u = rng.uniform(-0.5, 0.5, shape), rng.uniform(-0.5, 0.5, shape)
    epsilon = np.array([[0.0], [0.1], [0.4]]) if batch else 0.1
    eta_t, u_t = semidiscrete_rhs_peregrine(eta, u, delta, epsilon, g)
    expected = composed_rate(eta, u, delta, epsilon, g)
    assert np.array_equal(eta_t, expected[0])
    assert np.array_equal(u_t, expected[1])
    semidiscrete_rhs_peregrine(-eta, 2.0 * u, delta, epsilon, g)
    assert np.array_equal(eta_t, expected[0])
    assert np.array_equal(u_t, expected[1])


@pytest.mark.parametrize("boundary", ["periodic", "reflective"])
def test_rk4_step_equals_rk4_of_the_rate(boundary):
    g = Grid(-50.0, 50.0, 400, boundary)
    cfg = RunConfig("peregrine-dissipative", g, SmoothedRiemann(0.4), 0.025, 1.0,
                    delta=0.5, epsilon=0.1)
    state = make_initial(cfg.ic, g)
    for _ in range(3):
        state = step(state, cfg)
    eta, u, dt = state.eta, state.u, cfg.dt

    def rate(e, v):
        return semidiscrete_rhs_peregrine(e, v, cfg.delta, cfg.epsilon, g)

    k1 = rate(eta, u)
    k2 = rate(eta + 0.5 * dt * k1[0], u + 0.5 * dt * k1[1])
    k3 = rate(eta + 0.5 * dt * k2[0], u + 0.5 * dt * k2[1])
    k4 = rate(eta + dt * k3[0], u + dt * k3[1])
    new = step(state, cfg)
    for i, y in enumerate((new.eta, new.u)):
        expected = ((k2[i] + k3[i]) * 2.0 + k1[i] + k4[i]) * (dt / 6.0) + (eta, u)[i]
        assert np.array_equal(y, expected)


# ---- run configuration -------------------------------------------------


def small_config(**overrides):
    base = dict(
        system="peregrine-dissipative",
        grid=Grid(-100.0, 100.0, 800, "periodic"),
        ic=SmoothedRiemann(0.4, 2.0),
        dt=0.025,
        t_end=2.0,
        delta=1.0,
        epsilon=0.1,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_config_accepts_string_system():
    cfg = small_config()
    assert cfg.system.value == "peregrine-dissipative"


@pytest.mark.parametrize(
    "overrides",
    [
        dict(dt=0.0),
        dict(t_end=-1.0),
        dict(delta=-0.5),
        dict(epsilon=-0.1),
        dict(system="peregrine-inviscid"),  # epsilon stays 0.1
        dict(system="shallow-water", delta=0.0),  # epsilon stays 0.1
        dict(snapshot_times=(5.0,)),  # beyond t_end
        dict(snapshot_times=(-1.0,)),
        dict(dt=0.5),  # violates the advective bound
        dict(delta=math.nan),
        dict(epsilon=math.inf),
        dict(t_end=math.nan),
        dict(t_end=math.inf),
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides)


def test_cfl_bound_formula():
    g = periodic_grid(64)
    state = FieldPair(np.full(64, 0.5), np.full(64, 0.25))
    expected = 0.9 * g.dx / (1.0 + 0.25 + math.sqrt(1.5))
    assert cfl_bound(state, g) == pytest.approx(expected, rel=1e-14)


# ---- stepping and conservation -----------------------------------------


def test_zero_state_is_preserved_exactly():
    for system, delta, eps in [
        ("peregrine-dissipative", 1.0, 0.1),
        ("peregrine-inviscid", 1.0, 0.0),
        ("shallow-water", 0.0, 0.0),
    ]:
        cfg = small_config(system=system, ic=Gaussian(0.0, 10.0), delta=delta,
                           epsilon=eps, t_end=0.25)
        state = make_initial(cfg.ic, cfg.grid)
        for _ in range(4):
            state = step(state, cfg)
        assert np.all(state.eta == 0.0)
        assert np.all(state.u == 0.0)


@pytest.fixture(scope="module")
def riemann_run():
    cfg = small_config(t_end=6.0, snapshot_times=(0.0, 1.5, 3.0, 4.5, 6.0))
    return cfg, evolve(cfg)


def test_mass_conservation_periodic(riemann_run):
    cfg, snaps = riemann_run
    m0 = discrete_mass(snaps[0], cfg.grid)
    for snap in snaps[1:]:
        assert abs(discrete_mass(snap, cfg.grid) - m0) < 1e-10 * max(1.0, abs(m0))


def test_energy_decays_on_dissipative_run(riemann_run):
    cfg, snaps = riemann_run
    energies = [energy_functional(s, cfg.grid, cfg.delta) for s in snaps]
    slack = 1e-8 * energies[0]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + slack
    assert energies[-1] < energies[0]


def test_mass_conservation_reflective():
    g = Grid(-80.0, 80.0, 640, "reflective")
    cfg = RunConfig("peregrine-dissipative", g, Gaussian(0.4, 8.0), 0.025, 4.0,
                    delta=1.0, epsilon=0.1)
    snaps = evolve(cfg)
    m0 = discrete_mass(make_initial(cfg.ic, g), g)
    assert abs(discrete_mass(snaps[-1], g) - m0) < 1e-10


def test_evolve_zero_time_returns_initial():
    cfg = small_config(t_end=0.0)
    snaps = evolve(cfg)
    init = make_initial(cfg.ic, cfg.grid)
    assert len(snaps) == 1
    assert np.array_equal(snaps[0].eta, init.eta)
    assert snaps[0].t == 0.0


def test_snapshots_map_to_nearest_step():
    cfg = small_config(t_end=1.0, snapshot_times=(0.26, 0.9999))
    snaps = evolve(cfg)
    assert snaps[0].t == pytest.approx(0.25, abs=1e-12)
    assert snaps[1].t == pytest.approx(1.0, abs=1e-12)


def test_snapshots_keep_requested_order():
    cfg = small_config(t_end=1.0, snapshot_times=(1.0, 0.0, 1.0))
    snaps = evolve(cfg)
    assert [round(s.t, 6) for s in snaps] == [1.0, 0.0, 1.0]
    assert np.array_equal(snaps[0].eta, snaps[2].eta)


def test_evolve_is_deterministic():
    cfg = small_config(t_end=1.0)
    a = evolve(cfg)[0]
    b = evolve(cfg)[0]
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.u, b.u)


def test_initial_override_size_check():
    cfg = small_config(t_end=0.5)
    with pytest.raises(ValueError):
        evolve(cfg, initial=FieldPair(np.zeros(10), np.zeros(10)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_raises_numerics_error():
    # The override skips the constructor's CFL screen; the first step's
    # bound check, a vacuum or an overflow of this fast field each surface
    # as NumericsError.
    cfg = small_config(ic=Gaussian(0.0, 10.0), t_end=2.0)
    n = cfg.grid.n
    wild = FieldPair(np.zeros(n), 50.0 * np.sin(2.0 * math.pi * np.arange(n) / n))
    with pytest.raises(NumericsError):
        evolve(cfg, initial=wild)


def test_cfl_bound_is_checked_at_every_step():
    # The initial screen passes with a 5% margin, but the crests behind the
    # front raise max|u| until the bound drops below dt (0.179 at t = 30).
    g = Grid(-100.0, 100.0, 400, "reflective")
    ic = SmoothedRiemann(0.5)
    dt = 0.95 * cfl_bound(make_initial(ic, g), g)
    cfg = RunConfig("peregrine-dissipative", g, ic, dt, 30.0, delta=1.0,
                    epsilon=0.1, snapshot_times=(5.0, 30.0))
    with pytest.raises(NumericsError, match=r"bound .* fell below dt = .* at t = 1\.3"):
        evolve(cfg)
    with pytest.raises(NumericsError, match="fell below dt"):
        error_study(cfg, [0.1])


@pytest.mark.parametrize("field, value", [("u", np.nan), ("eta", np.inf), ("eta", -np.inf)])
def test_checked_rejects_non_finite_values(field, value):
    # -inf in eta shows only in a minimum: a max-only check would pass it.
    cfg = small_config(t_end=0.5)
    state = make_initial(cfg.ic, cfg.grid)
    getattr(state, field)[17] = value
    with pytest.raises(NumericsError, match="non-finite"):
        _checked(state, cfg)


def test_shallow_water_reflective_walls_conserve_mass_and_symmetry():
    # A centred bump splits into two waves that reach both walls; the wall
    # fluxes must keep the discrete mass and the mirror symmetry exactly.
    g = Grid(-40.0, 40.0, 320, "reflective")
    cfg = RunConfig("shallow-water", g, Gaussian(0.4, 4.0), 0.05, 30.0)
    init = make_initial(cfg.ic, g)
    (final,) = evolve(cfg)
    assert abs(discrete_mass(final, g) - discrete_mass(init, g)) < 1e-12
    assert np.array_equal(final.eta, final.eta[::-1])
    assert np.array_equal(final.u, -final.u[::-1])


# ---- norms -------------------------------------------------------------


def test_error_norm_of_identical_states_is_zero():
    g = periodic_grid(64)
    a = FieldPair(np.sin(g.x), np.cos(g.x))
    assert error_norm(a, a.copy(), g) == 0.0


def test_error_norm_closed_form():
    # h = A sin x, w = 0: the discrete sum of sin^2 over a full period is
    # exactly n/2, so the norm is A sqrt(pi).
    g = periodic_grid(128)
    amp = 0.3
    a = FieldPair(amp * np.sin(g.x), np.zeros(g.n))
    b = FieldPair(np.zeros(g.n), np.zeros(g.n))
    assert error_norm(a, b, g) == pytest.approx(amp * math.sqrt(math.pi), rel=1e-12)


def test_error_norm_includes_velocity_gradient():
    g = periodic_grid(256)
    amp = 0.2
    a = FieldPair(np.zeros(g.n), amp * np.sin(g.x))
    b = FieldPair(np.zeros(g.n), np.zeros(g.n))
    # ||w||^2 = ||w_x||^2 = amp^2 pi up to the fourth-order D1 error.
    assert error_norm(a, b, g) == pytest.approx(
        amp * math.sqrt(2.0 * math.pi), rel=1e-6
    )


def test_error_norm_validation():
    g = periodic_grid(64)
    a = FieldPair(np.zeros(64), np.zeros(64), t=0.0)
    b = FieldPair(np.zeros(64), np.zeros(64), t=1.0)
    with pytest.raises(ValueError):
        error_norm(a, b, g)
    with pytest.raises(ValueError):
        error_norm(a, FieldPair(np.zeros(32), np.zeros(32)), g)


# ---- error study -------------------------------------------------------


@pytest.fixture(scope="module")
def study():
    cfg = small_config(t_end=4.0, snapshot_times=(1.0, 2.0, 3.0, 4.0))
    return error_study(cfg, [0.1, 0.05])


def test_error_study_series_shapes(study):
    assert len(study.series) == 2
    assert study.series[0].epsilon == 0.1
    assert study.series[1].epsilon == 0.05
    for series in study.series:
        assert series.times.shape == (4,)
        assert np.all(series.y > 0.0)


def test_error_study_gains_are_linear_in_epsilon(study):
    # Doubling epsilon should double y pointwise, within a factor of 2.
    ratio = study.series[0].y / study.series[1].y
    assert np.all(ratio > 1.0)
    assert np.all(ratio < 4.0)
    k_hi, k_lo = study.fits[0].gain, study.fits[1].gain
    assert 0.5 < k_hi / k_lo < 2.0
    for fit in study.fits:
        assert fit.gain > 0.0
        assert 1.0 <= fit.window[0] <= fit.window[1] <= 4.0
        assert fit.n_points >= 2


def test_error_study_matches_standalone_runs(study):
    # The batched study must reproduce separate evolve() runs bit for bit.
    cfg = small_config(t_end=4.0, snapshot_times=(1.0, 2.0, 3.0, 4.0))
    reference = evolve(replace(cfg, epsilon=0.0))
    for series in study.series:
        runs = evolve(replace(cfg, epsilon=series.epsilon))
        y = [error_norm(a, b, cfg.grid) for a, b in zip(runs, reference)]
        assert np.array_equal(series.y, y)
        assert np.array_equal(series.times, [s.t for s in reference])


def test_error_study_validation():
    cfg = small_config(t_end=2.0, snapshot_times=(1.0, 2.0))
    with pytest.raises(ConfigError):
        error_study(cfg, [])
    with pytest.raises(ConfigError):
        error_study(cfg, [0.1, -0.1])
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            error_study(cfg, [bad, 0.1])
    bare = small_config(t_end=2.0)
    with pytest.raises(ConfigError):
        error_study(bare, [0.1])
    inviscid = small_config(system="peregrine-inviscid", epsilon=0.0,
                            t_end=2.0, snapshot_times=(1.0, 2.0))
    with pytest.raises(ConfigError, match="peregrine-dissipative"):
        error_study(inviscid, [0.1])


def test_error_study_without_fit_window_raises():
    cfg = small_config(t_end=0.5, snapshot_times=(0.5,))
    with pytest.raises(NumericsError, match="window"):
        error_study(cfg, [0.1])


# ---- classical shock reference -----------------------------------------


def test_shock_reference_values():
    eta0, u0, c = shallow_water_shock_reference(1.2)
    assert u0 == pytest.approx(0.5 * (3.6 - math.sqrt(9.44)), rel=1e-14)
    assert eta0 == pytest.approx(u0 / (1.2 - u0), rel=1e-14)
    assert eta0 == pytest.approx(0.2817374897442327, rel=1e-12)
    assert u0 == pytest.approx(0.2637708504262781, rel=1e-12)


@pytest.mark.parametrize("c", [1.05, 1.2, 1.7, 2.5])
def test_shock_reference_satisfies_jump_conditions(c):
    eta0, u0, speed = shallow_water_shock_reference(c)
    assert speed == c
    assert abs(c * eta0 - (u0 + eta0 * u0)) < 1e-12
    assert abs(c * u0 - (eta0 + 0.5 * u0 * u0)) < 1e-12


def test_shock_reference_critical_and_invalid():
    eta0, u0, c = shallow_water_shock_reference(1.0)
    assert eta0 == pytest.approx(0.0, abs=1e-15)
    assert u0 == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        shallow_water_shock_reference(0.8)


def test_exact_shock_propagates_at_its_speed():
    g = Grid(-150.0, 150.0, 1200, "periodic")
    state, eta0, u0, c = right_going_shock(g)
    cfg = RunConfig("shallow-water", g, Gaussian(0.0, 1.0), 0.025, 15.0,
                    snapshot_times=(5.0, 15.0))
    early, late = evolve(cfg, initial=state)
    speed = (front_position(late, g, eta0 / 2)
             - front_position(early, g, eta0 / 2)) / 10.0
    assert speed == pytest.approx(c, abs=0.02)
    behind = (g.x > front_position(late, g, eta0 / 2) - 40.0) & (
        g.x < front_position(late, g, eta0 / 2) - 10.0
    )
    assert np.max(np.abs(late.eta[behind] - eta0)) < 0.02 * eta0


# ---- profile injection and front tracking ------------------------------


@pytest.fixture(scope="module")
def fast_profile():
    return integrate_profile(WaveParams(1.3, 0.2, 1.2))


def test_sample_profile_matches_spline_values(fast_profile):
    g = Grid(-30.0, 15.0, 180, "reflective")
    state = sample_profile_on_grid(fast_profile, g)
    inside = (g.x > fast_profile.xi[0]) & (g.x < fast_profile.xi[-1])
    linear = np.interp(g.x[inside], fast_profile.xi, fast_profile.u)
    assert np.max(np.abs(state.u[inside] - linear)) < 1e-4


def test_sample_profile_holds_tails(fast_profile):
    g = Grid(-200.0, 200.0, 400, "periodic")
    state = sample_profile_on_grid(fast_profile, g)
    assert state.eta[0] == pytest.approx(fast_profile.eta[0], rel=1e-12)
    assert state.eta[-1] == pytest.approx(fast_profile.eta[-1], rel=1e-12)


def test_sample_profile_blend_ramp(fast_profile):
    g = Grid(-200.0, 200.0, 400, "periodic")
    state = sample_profile_on_grid(fast_profile, g, blend_center=-100.0,
                                   blend_width=5.0)
    assert abs(state.eta[0]) < 1e-12
    plain = sample_profile_on_grid(fast_profile, g)
    right = g.x > -60.0
    assert np.max(np.abs(state.eta[right] - plain.eta[right])) < 1e-6


def test_front_position_interpolates_crossing():
    g = Grid(-50.0, 50.0, 2000, "periodic")
    eta = 0.5 * (1.0 - np.tanh(g.x - 3.0))
    state = FieldPair(eta, np.zeros(g.n))
    assert front_position(state, g, 0.5) == pytest.approx(3.0, abs=1e-3)


def test_front_position_picks_rightmost_crossing():
    # Two humps give two downward crossings of 0.5; the right one, at
    # 10 + sqrt(ln 2), must win.
    g = Grid(-50.0, 50.0, 2000, "periodic")
    eta = np.exp(-((g.x + 20.0) ** 2)) + np.exp(-((g.x - 10.0) ** 2))
    state = FieldPair(eta, np.zeros(g.n))
    expected = 10.0 + math.sqrt(math.log(2.0))
    assert front_position(state, g, 0.5) == pytest.approx(expected, abs=1e-3)


def test_front_position_without_crossing_raises():
    g = periodic_grid(64)
    state = FieldPair(np.zeros(64), np.zeros(64))
    with pytest.raises(NumericsError):
        front_position(state, g, 0.5)


def test_shape_misfit_zero_for_identical_states():
    g = Grid(-50.0, 50.0, 400, "periodic")
    state = FieldPair(np.exp(-(g.x**2) / 25.0), np.zeros(g.n))
    assert shape_misfit(state, state, g) == 0.0


def test_shape_misfit_undoes_translation():
    g = Grid(-50.0, 50.0, 2000, "periodic")
    reference = FieldPair(np.exp(-(g.x**2) / 25.0), np.zeros(g.n))
    moved = FieldPair(np.exp(-((g.x - 4.0) ** 2) / 25.0), np.zeros(g.n))
    aligned = shape_misfit(reference, moved, g, shift=4.0,
                           window=(-30.0, 30.0))
    raw = shape_misfit(reference, moved, g, window=(-30.0, 30.0))
    assert aligned < 1e-6
    assert raw > 1e3 * aligned


def test_shape_misfit_constant_offset_closed_form():
    g = Grid(0.0, 10.0, 100, "periodic")
    a = FieldPair(np.zeros(100), np.zeros(100))
    b = FieldPair(np.full(100, 0.3), np.zeros(100))
    window = (2.0, 5.0)
    count = np.count_nonzero((g.x >= 2.0) & (g.x <= 5.0))
    expected = 0.3 * math.sqrt(g.dx * count)
    assert shape_misfit(a, b, g, window=window) == pytest.approx(expected, rel=1e-12)


# ---- export ------------------------------------------------------------


def test_snapshot_csv_round_trip(tmp_path):
    g = periodic_grid(32)
    state = FieldPair(np.sin(g.x), np.cos(g.x), t=2.5)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(state, g, path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.array_equal(data["x"], g.x)
    assert np.array_equal(data["eta"], state.eta)
    assert np.array_equal(data["u"], state.u)


def test_snapshot_manifest_contents():
    cfg = small_config(t_end=1.0)
    state = FieldPair(np.zeros(cfg.grid.n), np.zeros(cfg.grid.n), t=1.0)
    man = snapshot_manifest(cfg, state)
    assert man == {
        "system": "peregrine-dissipative",
        "delta": 1.0,
        "epsilon": 0.1,
        "dx": 0.25,
        "dt": 0.025,
        "t": 1.0,
    }


def test_error_series_csv_round_trip(tmp_path, study):
    path = tmp_path / "err.csv"
    write_error_series_csv(study.series[0], path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert np.array_equal(data["t"], study.series[0].times)
    assert np.array_equal(data["y"], study.series[0].y)



def test_write_csv_matches_savetxt_bytes(tmp_path):
    # More rows than four formatting blocks, and values whose %.17g text
    # is special: signed zero, infinities, NaN, subnormal, huge.
    rng = np.random.default_rng(3)
    cols = [np.arange(5000.0), rng.standard_normal(5000), rng.standard_normal(5000)]
    cols[1][:6] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7e308]
    write_csv(tmp_path / "a.csv", "i,a,b", cols)
    np.savetxt(tmp_path / "b.csv", np.column_stack(cols), fmt="%.17g", delimiter=",",
               header="i,a,b", comments="")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

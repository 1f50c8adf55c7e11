"""Semidiscrete operators against Fourier/closed-form oracles, then the
time stepper's conservation and validation behavior."""

import gc
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bore_lab import pde
from bore_lab.config import build_run_config, preset_pairs
from bore_lab.csvio import _BLOCK_VALUES, write_csv
from bore_lab.errors import ConfigError, NumericsError
from bore_lab.pde import (
    _RK4_REAL_LIMIT,
    _checked,
    FieldPair,
    Gaussian,
    MAX_CELL_STEPS,
    MAX_GRID_CELLS,
    MAX_RUN_BYTES,
    Grid,
    RunConfig,
    SmoothedRiemann,
    SystemKind,
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
    shape_misfit,
    snapshot_manifest,
    step,
    write_error_series_csv,
    write_snapshot_csv,
)
from bore_lab.traveling_wave import integrate_profile
from bore_lab.waveform import WaveParams, equilibria


def periodic_grid(n=256):
    return Grid(0.0, 2.0 * math.pi, n, "periodic")


def shock_state(c):
    """Upstream jump state (eta, u) of the classical shock moving at c: the
    far field the traveling-wave tails approach."""
    eq = equilibria(WaveParams(c, 1.0, 1.0))
    return eq.eta_tail, eq.u_tail


def right_going_shock(grid):
    """Exact classical shock data for c = 1.2, front at x = 0."""
    c = 1.2
    eta0, u0 = shock_state(c)
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
    # The cell cap holds at construction, before any array exists.
    assert Grid(0.0, 1.0, MAX_GRID_CELLS).n == 2**20
    with pytest.raises(ConfigError, match=r"n <= 1048576 \(2\*\*20\)"):
        Grid(0.0, 1.0, MAX_GRID_CELLS + 1)
    with pytest.raises(ConfigError, match=r"got 8000000000000"):
        Grid(-1e12, 1e12, 8 * 10**12)
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
        "riemann",  # a key value, not an initial-condition spec
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


def test_periodic_correction_holds_no_subnormals():
    # On the sec4-riemann grid the correction vector p decays to subnormals
    # mid-domain; they are zeroed at factorization, and a solve comes out
    # bit for bit as with the unflushed p.
    from bore_lab.pde import _HelmholtzSolver

    g = Grid(-800.0, 800.0, 6400)
    solver = _HelmholtzSolver(1.0, g)
    tiny = np.finfo(float).tiny
    assert not np.any((solver._p != 0.0) & (np.abs(solver._p) < tiny))
    raw = _HelmholtzSolver(1.0, g)
    raw._p = None
    w = np.zeros(g.n)
    w[0] = w[-1] = 1.0
    raw._p = raw.solve(w)
    subnormal = (raw._p != 0.0) & (np.abs(raw._p) < tiny)
    assert np.count_nonzero(subnormal) == 746
    assert np.array_equal(np.where(subnormal, 0.0, raw._p), solver._p)
    assert raw._gain == solver._gain
    z = np.random.default_rng(7).standard_normal((2, g.n))
    assert np.array_equal(solver.solve(z.copy()), raw.solve(z.copy()))


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


def override_config():
    """small_config on a 256-cell grid: dx = 0.25, dt = 0.025."""
    return small_config(grid=Grid(-32.0, 32.0, 256, "periodic"), t_end=0.5)


def test_vacuum_state_raises():
    # The rate is a polynomial in eta and has no singularity at 1 + eta = 0;
    # the run refuses such a state, the starting one included, at t = 0.
    cfg = override_config()
    state = FieldPair(np.full(256, -1.5), np.zeros(256))
    eta_t, u_t = semidiscrete_rhs_peregrine(
        state.eta, state.u, cfg.delta, cfg.epsilon, cfg.grid
    )
    assert np.all(np.isfinite(eta_t)) and np.all(np.isfinite(u_t))
    with pytest.raises(NumericsError, match=r"vacuum .* at t = 0$"):
        evolve(cfg, initial=state)


def test_override_breaching_advective_bound_fails_at_t0():
    # u = 10 admits steps up to 0.9 * 0.25 / 12 = 0.01875 < dt.
    cfg = override_config()
    state = FieldPair(np.zeros(256), np.full(256, 10.0))
    with pytest.raises(NumericsError, match=r"fell below dt = 0\.025 at t = 0$"):
        evolve(cfg, initial=state)


def test_rhs_grid_mismatch():
    with pytest.raises(ValueError):
        semidiscrete_rhs_peregrine(np.zeros(64), np.zeros(64), 1.0, 0.0, periodic_grid(128))


def test_rhs_rejects_negative_delta():
    with pytest.raises(ValueError, match="delta must be >= 0"):
        semidiscrete_rhs_peregrine(np.zeros(64), np.zeros(64), -0.1, 0.0, periodic_grid(64))


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
    # returns must not alias the workspace that the next call reuses.  The
    # stage has one path, epsilon D2 u - forcing, for every epsilon; the
    # inputs take it at a scalar epsilon = 0, whose product is zero, at a
    # nonzero scalar, at a batch with a zero row and at a one-row batch.
    g = Grid(-10.0, 10.0, 200, boundary)
    rng = np.random.default_rng(5)
    if batch:
        inputs = [((3, g.n), np.array([[0.0], [0.1], [0.4]])), ((1, g.n), np.array([[0.4]]))]
    else:
        inputs = [((g.n,), 0.1), ((g.n,), 0.0)]
    for shape, epsilon in inputs:
        eta, u = rng.uniform(-0.5, 0.5, shape), rng.uniform(-0.5, 0.5, shape)
        eta_t, u_t = semidiscrete_rhs_peregrine(eta, u, delta, epsilon, g)
        expected = composed_rate(eta, u, delta, epsilon, g)
        assert np.array_equal(eta_t, expected[0])
        assert np.array_equal(u_t, expected[1])
        semidiscrete_rhs_peregrine(-eta, 2.0 * u, delta, epsilon, g)
        assert np.array_equal(eta_t, expected[0])
        assert np.array_equal(u_t, expected[1])


def dense_operator(stencil, grid, parity):
    """Dense matrix of a stencil {offset: weight}: indices wrap on periodic
    grids; at reflective walls index -1 - j reads cell j, and n + j reads
    cell n - 1 - j, times parity."""
    n = grid.n
    m = np.zeros((n, n))
    for i in range(n):
        for offset, weight in stencil.items():
            j = i + offset
            if grid.boundary == "periodic":
                m[i, j % n] += weight
            elif j < 0:
                m[i, -1 - j] += parity * weight
            elif j >= n:
                m[i, 2 * n - 1 - j] += parity * weight
            else:
                m[i, j] += weight
    return m


@pytest.mark.parametrize("boundary", ["periodic", "reflective"])
@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("delta", [0.5, 0.0])
def test_stage_rate_matches_dense_matrices(boundary, batch, delta):
    # An oracle that shares no code with the stage: eta_t = -D1 ((1 + eta) u)
    # and (I - delta D2) u_t = -(u D1 u + D1 eta) + epsilon D2 u, with u odd
    # and eta even about reflective walls.
    g = Grid(-8.0, 8.0, 64, boundary)
    h = g.dx
    d1 = {-2: 1 / (12 * h), -1: -8 / (12 * h), 1: 8 / (12 * h), 2: -1 / (12 * h)}
    d2 = {-1: 1 / h**2, 0: -2 / h**2, 1: 1 / h**2}
    d1_odd, d1_even = dense_operator(d1, g, -1), dense_operator(d1, g, 1)
    d2_odd = dense_operator(d2, g, -1)
    rng = np.random.default_rng(11)
    shape = (3, g.n) if batch else (g.n,)
    eta, u = rng.uniform(-0.5, 0.5, shape), rng.uniform(-0.5, 0.5, shape)
    for epsilon in [np.array([[0.0], [0.1], [0.7]])] if batch else [0.3, 0.0]:
        eta_t, u_t = semidiscrete_rhs_peregrine(eta, u, delta, epsilon, g)
        columns = np.broadcast_to(epsilon, shape[:-1] + (1,))
        for row in np.ndindex(shape[:-1]):
            e, v, eps = eta[row], u[row], float(columns[row][0])
            want_eta = -d1_odd @ ((1.0 + e) * v)
            forcing = -(v * (d1_odd @ v) + d1_even @ e) + eps * (d2_odd @ v)
            want_u = np.linalg.solve(np.eye(g.n) - delta * d2_odd, forcing)
            for got, want in ((eta_t[row], want_eta), (u_t[row], want_u)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


@pytest.mark.parametrize(
    "first, second",
    [
        pytest.param(dict(delta=1.0, epsilon=0.1), dict(delta=0.5, epsilon=0.1), id="delta"),
        pytest.param(dict(delta=1.0, epsilon=0.1), dict(delta=1.0, epsilon=0.2), id="epsilon"),
        pytest.param(dict(delta=1.0, epsilon=(0.1, 0.05)), dict(delta=1.0, epsilon=(0.2, 0.05)),
                     id="epsilon-tuple"),
    ],
)
def test_step_reuses_no_other_configs_workspace(first, second):
    # Two configs on one grid and batch shape, stepped in turn, each take
    # the very step they take from an empty cache: the cached workspace's
    # factorization and epsilon belong to the config that stepped last.
    g = Grid(-50.0, 50.0, 400, "periodic")
    configs = [RunConfig("peregrine-dissipative", g, SmoothedRiemann(0.4), 0.025, 1.0, **kw)
               for kw in (first, second)]
    rows = len(first["epsilon"]) if isinstance(first["epsilon"], tuple) else 1
    eta = make_initial(configs[0].ic, g).eta
    eta = np.tile(eta, (rows, 1)) if rows > 1 else eta
    state = FieldPair(eta, 0.3 * eta)

    def fresh(cfg):
        pde._stage.cache_clear()
        new = step(state, cfg)
        return new.eta.tobytes() + new.u.tobytes()

    try:
        expected = [fresh(cfg) for cfg in configs]
        for cfg, want in zip(configs * 2, expected * 2):
            new = step(state, cfg)
            assert new.eta.tobytes() + new.u.tobytes() == want
    finally:
        pde._stage.cache_clear()


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
        dict(epsilon=()),
        dict(epsilon=(0.0, math.nan)),
        dict(epsilon=(0.0, -0.1)),
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigError):
        small_config(**overrides)


def test_damping_bound_without_dispersion():
    # dt * 4 epsilon / (dx**2 + 4 delta) <= 2.785 (test_cli covers delta = 1):
    # with delta = 0, dx = 0.25 and dt = 0.025 the limit lies between
    # epsilon = 1.7 and 1.8.
    small_config(delta=0.0, epsilon=1.7)
    with pytest.raises(ConfigError, match="RK4 damping bound"):
        small_config(delta=0.0, epsilon=1.8)


def test_cell_step_budget():
    # 800 cells: dt = 8e-7 over t_end = 2 is 2.5e6 steps, the budget exactly.
    assert 800 * 2_500_000 == MAX_CELL_STEPS
    small_config(dt=8e-7)
    for dt in (7.9e-7, 1e-9, 5e-324):
        with pytest.raises(ConfigError, match="cell-step budget"):
            small_config(dt=dt)


class FirstStep(Exception):
    """Raised by a stand-in for step, to end a run where it would begin."""


def test_snapshot_byte_budget(monkeypatch):
    # evolve on 2**20 cells holds 8 bytes x (10 + 2 x 59 snapshots) per
    # cell, 2**30 exactly; 60 snapshots are over and refused before the
    # first step.  Both configs, whose workspace alone is checked, load;
    # 1200 steps stay inside the cell-step budget.
    assert MAX_GRID_CELLS * 8 * (10 + 2 * 59) <= MAX_RUN_BYTES < MAX_GRID_CELLS * 8 * (10 + 2 * 60)

    def first_step(state, config):
        raise FirstStep

    monkeypatch.setattr("bore_lab.pde.step", first_step)
    run = dict(grid=Grid(-8.0, 8.0, MAX_GRID_CELLS, "periodic"), dt=5e-6, t_end=0.006)
    with pytest.raises(FirstStep):
        evolve(small_config(snapshot_times=[1e-4 * i for i in range(59)], **run))
    with pytest.raises(ConfigError, match="memory budget"):
        evolve(small_config(snapshot_times=[1e-4 * i for i in range(60)], **run))


def test_batch_row_budget():
    # A 5-step study on 3200 cells holds the workspace alone, whatever its
    # snapshot times: 10**5 rows are 1.6e9 cell-steps, inside that budget,
    # but 2.6e10 bytes; the cap falls between 4194 and 4195 rows.
    assert 4194 * 3200 * 8 * 10 <= MAX_RUN_BYTES < 4195 * 3200 * 8 * 10
    for snapshots in (1, 6):
        base = small_config(grid=Grid(-400.0, 400.0, 3200, "periodic"), t_end=0.125,
                            snapshot_times=[0.125 - 0.025 * i for i in range(snapshots)])
        with pytest.raises(ConfigError, match="memory budget"):
            error_study(base, [0.1] * (10**5 - 1))
        with pytest.raises(ConfigError, match=r"\(10 \+ 2 x 0 snapshots\)\), over the memory"):
            error_study(base, [0.1] * 4194)


def test_error_study_memory_does_not_grow_with_snapshot_times():
    # Each snapshot is folded into its norms at once: 40 snapshot times
    # cost less than one more (rows, n) array than 4 do, where keeping the
    # snapshots would cost 72 more.  Each run is measured after a first
    # one, so that both find the workspace cached.
    cfg = small_config(t_end=4.0)
    epsilons = [0.1, 0.05]
    peaks = []
    for count in (4, 40):
        run = replace(cfg, snapshot_times=[4.0 * (i + 1) / count for i in range(count)])
        error_study(run, epsilons)
        tracemalloc.start()
        try:
            error_study(run, epsilons)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < (1 + len(epsilons)) * cfg.grid.n * 8


def test_error_study_holds_no_state_between_snapshot_times():
    # Once its norms are stored, a batch state is dropped: a snapshot time
    # before t_end costs no more than t_end alone, where keeping the state
    # while the march steps on would hold one (1 + m) x n x 2 block more.
    cfg = small_config(grid=Grid(-400.0, 400.0, 3200, "periodic"))
    epsilons = [0.1, 0.05]
    peaks = []
    for times in ((2.0,), (1.0, 2.0)):
        run = replace(cfg, snapshot_times=times)
        error_study(run, epsilons)
        tracemalloc.start()
        try:
            error_study(run, epsilons)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block = (1 + len(epsilons)) * cfg.grid.n * 2 * 8
    assert peaks[1] - peaks[0] < block / 4


def test_runs_leave_no_workspace_cached(monkeypatch):
    # Each march releases its RK4 workspace, Helmholtz factorization
    # included, when it ends, so none outlives the run that built it,
    # failed runs included; the public rate and solve cache none.
    def released():
        return pde._stage.cache_info().currsize == 0

    evolve(small_config(t_end=0.05))
    assert released()
    error_study(small_config(t_end=1.0, snapshot_times=[1.0]), [0.1])
    assert released()
    g = periodic_grid(64)
    semidiscrete_rhs_peregrine(np.zeros(g.n), np.zeros(g.n), 1.0, 0.1, g)
    assert released()
    helmholtz_apply_inverse(np.ones(g.n), 1.0, g)
    assert released()

    def step_then_fail(state, config):
        step(state, config)
        raise NumericsError("failed after one step")

    monkeypatch.setattr(pde, "step", step_then_fail)
    with pytest.raises(NumericsError, match="after one step"):
        evolve(small_config(t_end=0.05))
    assert released()


def test_runs_on_two_grids_leave_one_workspace():
    # The RK4 workspace (10 arrays per cell) and the Helmholtz factorization
    # (3 more) of a run are released when its march ends: after runs on
    # 2**14 and 2**15 cells the process holds less than one array of
    # 2**15 cells, where keeping the last run's would hold 13.
    evolve(small_config(t_end=0.05))  # modules loaded before tracing
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for n in (2**14, 2**15):
            evolve(small_config(grid=Grid(-100.0, 100.0, n, "periodic"), dt=1e-3, t_end=2e-3))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 8 * 2**15


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


def test_energy_functional_can_grow_on_a_dissipative_run():
    # energy_functional is no Lyapunov functional: on this draw of the PDE
    # envelope sweep it grows, by the same amount at dt and dt/4, so the
    # growth is the system's, not the time stepper's.
    grid = Grid(-40.0, 40.0, 256, "periodic")
    ic = Gaussian(-0.949, 5.0)
    delta, epsilon = 1.064, 42.34
    dt = 0.04 * _RK4_REAL_LIMIT * (grid.dx**2 + 4.0 * delta) / (4.0 * epsilon)
    e0 = energy_functional(make_initial(ic, grid), grid, delta)
    growth = []
    for div in (1, 4):
        cfg = RunConfig("peregrine-dissipative", grid, ic, dt / div, 8 * dt,
                        delta=delta, epsilon=epsilon)
        (final,) = evolve(cfg)
        growth.append((energy_functional(final, grid, delta) - e0) / e0)
    assert growth[0] == pytest.approx(7.1e-7, rel=0.01)
    assert growth[1] == pytest.approx(growth[0], rel=1e-6)


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


def test_blowup_raises_numerics_error():
    # The override skips the constructor's CFL screen, which samples
    # config.ic; the run's own gate refuses this fast field at t = 0.
    cfg = small_config(ic=Gaussian(0.0, 10.0), t_end=2.0)
    n = cfg.grid.n
    wild = FieldPair(np.zeros(n), 50.0 * np.sin(2.0 * math.pi * np.arange(n) / n))
    with pytest.raises(NumericsError, match="at t = 0$"):
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
        _checked(np.stack((state.eta, state.u)), state.t, cfg)


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


# ---- envelope sweep ----------------------------------------------------


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(
    system=st.sampled_from([kind.value for kind in SystemKind]),
    boundary=st.sampled_from(["periodic", "reflective"]),
    amplitude=st.floats(-0.95, 3.0, exclude_min=True),
    delta=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
    epsilon=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    fraction=st.floats(0.0, 1.0, exclude_min=True),
    steps=st.integers(0, 40),
)
def test_envelope_run_finishes_or_names_its_failure(
    system, boundary, amplitude, delta, epsilon, fraction, steps
):
    # dt is a fraction of the smaller of the advective and RK4 damping
    # bounds; t_end is a whole number of steps, so a small dt makes a short
    # run rather than a long one.  The systems that fix delta or epsilon
    # get their own values.  Each draw is refused at construction, finishes
    # finite with its mass kept, or fails a named check.
    if system != "peregrine-dissipative":
        epsilon = 0.0
    if system == "shallow-water":
        delta = 0.0
    grid = Grid(-40.0, 40.0, 256, boundary)
    ic = Gaussian(amplitude, 5.0)
    init = make_initial(ic, grid)
    damping = math.inf
    if epsilon > 0.0:
        damping = _RK4_REAL_LIMIT * (grid.dx**2 + 4.0 * delta) / (4.0 * epsilon)
    dt = fraction * min(cfl_bound(init, grid), damping)
    try:
        cfg = RunConfig(system, grid, ic, dt, steps * dt, delta=delta, epsilon=epsilon)
    except ConfigError:
        return
    try:
        (final,) = evolve(cfg)
    except NumericsError as exc:
        assert re.search("non-finite|vacuum|advective bound|Helmholtz", str(exc)), exc
        return
    assert np.all(np.isfinite(final.eta)) and np.all(np.isfinite(final.u))
    drift = abs(discrete_mass(final, grid) - discrete_mass(init, grid))
    assert drift <= 1e-12 * grid.dx * np.sum(np.abs(init.eta))


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


def arcs(state, cfg):
    """_arcs of a 1-D or batch state at cfg's margin."""
    y = np.array((state.eta, state.u)).reshape(2, -1, cfg.grid.n)
    parity = np.array([1.0, -1.0]).reshape(2, 1, 1)
    scratch = np.empty(y.shape[:-1] + (cfg.grid.n + 2,)), np.empty(y.shape[:-1] + (cfg.grid.n + 1,))
    return pde._arcs(y, cfg.grid, parity, pde._margin(cfg.delta, cfg.grid), *scratch)


@pytest.mark.parametrize(
    "delta, overrides, epsilons",
    [
        pytest.param(1.0, {}, (0.0, 0.1), id="1.0"),
        pytest.param(0.0, {}, (0.0, 0.1), id="0.0"),
        # On 3200 cells each row marches two arcs, and epsilon = 2 spreads
        # its fronts so that its arcs are wider than epsilon = 0's.
        pytest.param(1.0, dict(grid=Grid(-400.0, 400.0, 3200)), (0.0, 2.0), id="partial-windows"),
    ],
)
def test_batch_rows_equal_standalone_runs_byte_for_byte(delta, overrides, epsilons):
    # Compared by bytes, so that a signed zero in any row would show; the
    # epsilon = 0 row and the standalone epsilon = 0 run take one stage path.
    cfg = small_config(delta=delta, snapshot_times=(0.0, 1.0, 2.0), **overrides)
    batch = evolve(replace(cfg, epsilon=epsilons))
    for row, epsilon in enumerate(epsilons):
        alone = evolve(replace(cfg, epsilon=epsilon))
        for b, a in zip(batch, alone):
            assert b.t == a.t
            assert b.eta[row].tobytes() == a.eta.tobytes()
            assert b.u[row].tobytes() == a.u.tobytes()
    if overrides:
        w, segments = arcs(batch[-1], cfg)
        assert w == 0 and [a[1:] for a in segments[:2]] != [a[1:] for a in segments[2:]]


# ---- windowed march ----------------------------------------------------


@pytest.mark.parametrize(
    "cfg, shift, whole_at_end",
    [
        # Both dam breaks, at x = 0 and across the seam, grow arcs.  The whole
        # march runs on the state turned a quarter round, so that its own
        # seam lies at rest: there its periodic correction rounds otherwise
        # than the arc that crosses the seam, and unturned it differs from
        # itself turned by 1.5e-15, as from the windowed march.
        pytest.param(
            RunConfig("peregrine-dissipative", Grid(-400.0, 400.0, 3200), SmoothedRiemann(0.5),
                      0.025, 20.0, delta=1.0, epsilon=0.1), 800, False, id="periodic-seam"),
        # The waves reach the walls, and the row is marched whole from then.
        pytest.param(
            RunConfig("peregrine-dissipative", Grid(-80.0, 80.0, 640, "reflective"),
                      Gaussian(0.4, 4.0), 0.025, 10.0, delta=1.0, epsilon=0.1), 0, True,
            id="reflective-wall"),
        # No Helmholtz kernel: the margin is the stencils' 8 cells alone.
        pytest.param(
            RunConfig("peregrine-dissipative", Grid(-100.0, 100.0, 800), SmoothedRiemann(0.5),
                      0.025, 10.0, delta=0.0, epsilon=0.1), 0, False, id="delta-0"),
    ],
)
def test_windowed_march_matches_the_whole_grid_march(cfg, shift, whole_at_end, monkeypatch):
    init = make_initial(cfg.ic, cfg.grid)
    (windowed,) = evolve(cfg)
    assert arcs(init, cfg)[0] == 0 and arcs(windowed, cfg)[0] == whole_at_end
    # A zero tolerance makes the margin unbounded: every row is marched whole.
    monkeypatch.setattr(pde, "_REST_TOL", 0.0)
    (whole,) = evolve(cfg, initial=FieldPair(np.roll(init.eta, shift), np.roll(init.u, shift)))
    for got, want in ((windowed.eta, whole.eta), (windowed.u, whole.u)):
        assert np.max(np.abs(got - np.roll(want, -shift))) <= 1e-15
    mass = discrete_mass(whole, cfg.grid)
    assert abs(discrete_mass(windowed, cfg.grid) - mass) <= 1e-12 * abs(mass)


@pytest.mark.parametrize("boundary", ["periodic", "reflective"])
def test_batch_of_whole_windowed_and_resting_rows_equals_standalone_runs(boundary):
    # One block holds a bump by the right end (an arc across the seam, or a
    # row marched whole by its wall), a central bump's arc, and no cell of a
    # row at rest; each row must still take its standalone run's bytes.
    grid = Grid(-100.0, 100.0, 800, boundary)
    eta = np.array([0.3 * np.exp(-(((grid.x - 90.0) / 3.0) ** 2)),
                    0.2 * np.exp(-((grid.x / 3.0) ** 2)), np.zeros(grid.n)])
    cfg = RunConfig("peregrine-dissipative", grid, Gaussian(0.3, 3.0), 0.025, 3.0, delta=1.0,
                    epsilon=(0.1, 0.05, 0.2), snapshot_times=(1.0, 3.0))
    w, segments = arcs(FieldPair(eta, np.zeros_like(eta)), cfg)
    assert (w, len(segments)) == ((0, 2) if boundary == "periodic" else (1, 2))
    batch = evolve(cfg, initial=FieldPair(eta, np.zeros_like(eta)))
    for row, epsilon in enumerate(cfg.epsilon):
        alone = evolve(replace(cfg, epsilon=epsilon), initial=FieldPair(eta[row], np.zeros(grid.n)))
        for b, a in zip(batch, alone):
            assert b.eta[row].tobytes() == a.eta.tobytes()
            assert b.u[row].tobytes() == a.u.tobytes()


def test_sec4_riemann_steps_a_fraction_of_its_cells():
    # At t = 0 only the tanh ramp's 293 cells and the dam break across the
    # seam jump; with 165 cells of margin each side the block holds 971 of
    # the 6400 cells, ghost cells included, where the whole grid would hold
    # 6404.
    cfg = build_run_config({k: str(v) for k, v in preset_pairs("sec4-riemann").items()})
    init = make_initial(cfg.ic, cfg.grid)
    pde._stage.cache_clear()
    try:
        step(init, cfg)
        stage = pde._stage(cfg.grid, init.eta.shape, cfg.delta, cfg.epsilon)
        assert stage.p.shape[1] < 1100
    finally:
        pde._stage.cache_clear()


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
    # The checks of RunConfig, at the largest epsilon and for every row.
    with pytest.raises(ConfigError, match="RK4 damping bound"):
        error_study(small_config(dt=0.05, snapshot_times=(1.0, 2.0)), [0.1, 60.0])
    fits_one_row = small_config(dt=2e-6, snapshot_times=(1.0, 2.0))
    with pytest.raises(ConfigError, match="cell-step budget"):
        error_study(fits_one_row, [0.1, 0.05])


def test_error_study_is_one_evolve_through_step(monkeypatch):
    # Every PDE run takes the one step path: one call per dt, on the
    # (rows, n) batch of the reference and the dissipative runs.
    shapes = []

    def counting_step(state, config):
        shapes.append(state.eta.shape)
        return step(state, config)

    monkeypatch.setattr("bore_lab.pde.step", counting_step)
    cfg = small_config(t_end=2.0, snapshot_times=(1.0, 2.0))
    error_study(cfg, [0.1, 0.05])
    assert shapes == [(3, cfg.grid.n)] * round(cfg.t_end / cfg.dt)


@pytest.mark.parametrize("system, delta", [("peregrine-inviscid", 1.0), ("shallow-water", 0.0)])
@pytest.mark.parametrize("epsilons", [(0.0, 0.0), (0.0, 0.1)])
def test_epsilon_tuple_needs_the_dissipative_system(system, delta, epsilons):
    with pytest.raises(ConfigError, match="peregrine-dissipative"):
        small_config(system=system, delta=delta, epsilon=epsilons)


def test_batch_initial_must_have_the_batch_shape():
    cfg = small_config(t_end=0.5, epsilon=(0.0, 0.1))
    init = make_initial(cfg.ic, cfg.grid)
    with pytest.raises(ValueError, match="shape"):
        evolve(cfg, initial=init)
    rows = FieldPair(np.tile(init.eta, (2, 1)), np.tile(init.u, (2, 1)))
    (given_rows,), (configured,) = evolve(cfg, initial=rows), evolve(cfg)
    assert given_rows.eta.shape == (2, cfg.grid.n)
    assert np.array_equal(given_rows.eta, configured.eta)
    assert np.array_equal(given_rows.u, configured.u)


def test_error_study_without_fit_window_raises():
    cfg = small_config(t_end=0.5, snapshot_times=(0.5,))
    with pytest.raises(NumericsError, match="window"):
        error_study(cfg, [0.1])


# ---- classical shock reference -----------------------------------------


def test_shock_reference_values():
    eta0, u0 = shock_state(1.2)
    assert u0 == pytest.approx(0.5 * (3.6 - math.sqrt(9.44)), rel=1e-14)
    assert eta0 == pytest.approx(u0 / (1.2 - u0), rel=1e-14)
    assert eta0 == pytest.approx(0.2817374897442327, rel=1e-12)
    assert u0 == pytest.approx(0.2637708504262781, rel=1e-12)


@pytest.mark.parametrize("c", [1.05, 1.2, 1.7, 2.5])
def test_shock_reference_satisfies_jump_conditions(c):
    eta0, u0 = shock_state(c)
    assert abs(c * eta0 - (u0 + eta0 * u0)) < 1e-12
    assert abs(c * u0 - (eta0 + 0.5 * u0 * u0)) < 1e-12


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


# ---- exact viscous shock -----------------------------------------------


def viscous_shock(xi, c, epsilon):
    """Taylor's viscous shock (Whitham, Linear and Nonlinear Waves, ch. 2):
    (eta, u) of the exact traveling wave of the PDE at delta = 0, at
    xi = x - c t, with u = u_tail at -inf, 0 at +inf and u_tail / 2 at 0.

    epsilon u' = -F(u), F(u) = -u (u - um)(u - up) / (2 (u - c)), with
    um = u_tail, um + up = 3c and um up = 2 (c**2 - 1), integrates to
    xi(u) = epsilon (A ln u + B ln(um - u) + C ln(up - u)) + const, which
    falls as u rises.  It is inverted by bisection in s = ln(u / (um - u)),
    in which both logarithms near the tails stay exact.  The mass equation
    gives eta = u / (c - u).
    """
    root = math.sqrt(c * c + 8.0)
    um, up = 0.5 * (3.0 * c - root), 0.5 * (3.0 * c + root)
    a = -c / (c * c - 1.0)
    b = 2.0 * (um - c) / (um * (um - up))
    cc = 2.0 * (up - c) / (up * (up - um))

    def ln_u(s):
        return math.log(um) - np.logaddexp(0.0, -s)

    def position(s):
        ln_gap = math.log(um) - np.logaddexp(0.0, s)
        return epsilon * (a * ln_u(s) + b * ln_gap + cc * np.log(up - np.exp(ln_u(s))))

    target = np.asarray(xi, dtype=float) + position(0.0)
    lo, hi = np.full(target.shape, -800.0), np.full(target.shape, 800.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        ahead = position(mid) > target
        lo, hi = np.where(ahead, mid, lo), np.where(ahead, hi, mid)
    u = np.exp(ln_u(0.5 * (lo + hi)))
    return u / (c - u), u


def test_pde_carries_the_exact_viscous_shock_at_delta_0():
    # The closed form on a periodic [-200, 200], ramped to rest left of
    # x = -150 for the wrap, run to t = 2 with dt = dx**2 / 2 (the damping
    # bound's 2.785 dx**2 / (4 epsilon), less a margin), against the
    # translated closed form on |x| <= 100, which nothing from the ramp
    # reaches.  Second order in dx: 4.82e-5 and 1.22e-5 (ratio 3.94).
    c, epsilon = 1.3, 1.2
    assert viscous_shock(-200.0, c, epsilon) == pytest.approx(shock_state(c), rel=1e-12)
    errors = []
    for dx in (0.25, 0.125):
        grid = Grid(-200.0, 200.0, round(400.0 / dx), "periodic")
        ramp = 0.5 * (1.0 + np.tanh((grid.x + 150.0) / 5.0))
        eta, u = viscous_shock(grid.x, c, epsilon)
        cfg = RunConfig("peregrine-dissipative", grid, SmoothedRiemann(float(eta[0])),
                        0.5 * dx * dx, 2.0, delta=0.0, epsilon=epsilon)
        (end,) = evolve(cfg, initial=FieldPair(eta * ramp, u * ramp))
        eta, u = viscous_shock(grid.x - c * end.t, c, epsilon)
        near = np.abs(grid.x) <= 100.0
        d_eta, d_u = (end.eta - eta)[near], (end.u - u)[near]
        errors.append(math.sqrt(dx * float(np.dot(d_eta, d_eta) + np.dot(d_u, d_u))))
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] <= 2e-5


# ---- profile injection and front tracking ------------------------------


@pytest.fixture(scope="module")
def fast_profile():
    return integrate_profile(WaveParams(1.3, 0.2, 1.2))


def test_sample_profile_matches_linear_interpolation(fast_profile):
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


def test_empty_windows_and_nonpositive_blend_widths_are_refused(fast_profile):
    # A window beside the domain or reversed would compare no point and
    # score 0; a zero blend width divides by zero, a negative one inverts
    # the ramp.
    g = Grid(-10.0, 10.0, 80, "periodic")
    a = FieldPair(np.zeros(g.n), np.zeros(g.n))
    b = FieldPair(np.exp(-(g.x**2)), np.zeros(g.n))
    assert shape_misfit(a, b, g) > 0.0
    for window in ((50.0, 60.0), (5.0, -5.0)):
        with pytest.raises(ValueError, match="holds no grid point"):
            shape_misfit(a, b, g, window=window)
    for width in (0.0, -5.0):
        with pytest.raises(ValueError, match="blend_width must be positive"):
            sample_profile_on_grid(fast_profile, g, blend_center=0.0, blend_width=width)


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
    # Seven formatting blocks and a short eighth, fixed and exponent
    # layouts in each, and values whose %.17g text is special: signed zero,
    # infinities, NaN, subnormal, huge, and a tie at 17 digits.
    rng = np.random.default_rng(3)
    cols = [np.arange(5000.0), rng.standard_normal(5000),
            rng.standard_normal(5000) * 10.0 ** rng.integers(-12, 24, 5000)]
    assert 7 * _BLOCK_VALUES < 3 * 5000 < 8 * _BLOCK_VALUES
    cols[1][:7] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7e308, 131073 / 262144]
    cols[2][4000:4006] = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7e308]
    write_csv(tmp_path / "a.csv", "i,a,b", cols)
    np.savetxt(tmp_path / "b.csv", np.column_stack(cols), fmt="%.17g", delimiter=",",
               header="i,a,b", comments="")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

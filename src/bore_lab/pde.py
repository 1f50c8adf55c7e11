"""Method-of-lines evolution of the dissipative long-wave system.

The semidiscrete form uses a fourth-order central first difference for the
flux terms, a second-order central second difference for the dissipation,
and a direct solve of the elliptic operator (I - delta * D2) that the mixed
derivative term induces on u_t.  Time stepping is classical RK4; the
elliptic solve removes the third-derivative stiffness so the remaining CFL
restriction is advective.

Each RK4 stage evaluates the rate in one pass over a workspace cached per
(grid, batch shape).  A padded (3, ..., n + 4) buffer holds the rows
(-1 - eta) u, u and eta, two ghost cells at each end; the stage input is
written into its interior, one five-point stencil pass gives the three
first differences into that stage's (3, ..., n) rate buffer, and the
second difference of u is read from the same padded row.  Row 0 of the
rate buffer ends as eta_t; row 1 is built into the momentum forcing and
solved in place to u_t; row 2 is scratch.

A first-order finite-volume solver for the dispersionless shallow-water
reduction lives here as well, used as the classical-shock reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg.lapack import dpttrf, dpttrs

from .csvio import write_csv
from .errors import ConfigError, NumericsError


class BoundaryKind(str, Enum):
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"


class SystemKind(str, Enum):
    PEREGRINE_DISSIPATIVE = "peregrine-dissipative"
    PEREGRINE_INVISCID = "peregrine-inviscid"
    SHALLOW_WATER = "shallow-water"


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid.

    Periodic grids place nodes at x_min + i*dx with the right endpoint
    identified with the left; reflective grids use cell centers
    x_min + (i + 1/2)*dx with mirror walls at both ends.
    """

    x_min: float
    x_max: float
    n: int
    boundary: BoundaryKind = BoundaryKind.PERIODIC

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ConfigError(f"empty domain [{self.x_min}, {self.x_max}]")
        if self.n < 16:
            raise ConfigError(f"grid needs n >= 16, got {self.n}")
        object.__setattr__(self, "boundary", BoundaryKind(self.boundary))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def x(self) -> np.ndarray:
        offset = 0.0 if self.boundary is BoundaryKind.PERIODIC else 0.5
        return self.x_min + (np.arange(self.n) + offset) * self.dx


@dataclass
class FieldPair:
    """Surface elevation and velocity samples at one instant; (m, n) holds m runs."""

    eta: np.ndarray
    u: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.eta.shape != self.u.shape or self.eta.ndim not in (1, 2):
            raise ValueError("eta and u must be 1-D or 2-D arrays of equal shape")

    def copy(self) -> "FieldPair":
        return FieldPair(self.eta.copy(), self.u.copy(), self.t)


@dataclass(frozen=True)
class SmoothedRiemann:
    """Step of height eta_left smoothed by a tanh ramp, u = 0."""

    eta_left: float
    ramp_width: float = 2.0


@dataclass(frozen=True)
class Gaussian:
    """Bump amplitude * exp(-(x/width)**2), u = 0."""

    amplitude: float
    width: float


InitialCondition = Union[SmoothedRiemann, Gaussian]


def make_initial(ic: InitialCondition, grid: Grid) -> FieldPair:
    """Sample an initial-condition spec on the grid at t = 0."""
    x = grid.x
    if isinstance(ic, SmoothedRiemann):
        if not -1.0 < ic.eta_left < math.inf:
            raise ConfigError(f"eta_left must be finite and exceed -1, got {ic.eta_left}")
        if not ic.ramp_width > 0.0:
            raise ConfigError(f"ramp_width must be positive, got {ic.ramp_width}")
        eta = 0.5 * ic.eta_left * (1.0 - np.tanh(x / ic.ramp_width))
    elif isinstance(ic, Gaussian):
        if not -1.0 < ic.amplitude < math.inf:
            raise ConfigError(f"amplitude must be finite and exceed -1, got {ic.amplitude}")
        if not ic.width > 0.0:
            raise ConfigError(f"width must be positive, got {ic.width}")
        eta = ic.amplitude * np.exp(-((x / ic.width) ** 2))
    else:
        raise ConfigError(f"unknown initial condition {ic!r}")
    return FieldPair(eta, np.zeros_like(eta), 0.0)


# ---------------------------------------------------------------------------
# difference operators: along the last axis, so each row of an (m, n) batch
# comes out exactly as a 1-D call on it would

def _pad(y: np.ndarray, grid: Grid, parity: int, width: int) -> np.ndarray:
    n = y.shape[-1]
    p = np.empty(y.shape[:-1] + (n + 2 * width,))
    p[..., width:-width] = y
    if grid.boundary is BoundaryKind.PERIODIC:
        p[..., :width] = y[..., n - width :]
        p[..., -width:] = y[..., :width]
    else:
        np.multiply(y[..., width - 1 :: -1], parity, out=p[..., :width])
        np.multiply(y[..., : -width - 1 : -1], parity, out=p[..., -width:])
    return p


def first_difference(y: np.ndarray, grid: Grid, parity: int = 1) -> np.ndarray:
    """Fourth-order central d/dx along the last axis.

    parity selects the mirror closure on reflective grids: +1 for fields
    even about the walls (eta), -1 for odd fields (u).  Ignored on
    periodic grids.
    """
    p = _pad(y, grid, parity, 2)
    n = y.shape[-1]
    d = p[..., 3 : n + 3] - p[..., 1 : n + 1]
    d *= 8.0
    d += p[..., 0:n]
    d -= p[..., 4:]
    d /= 12.0 * grid.dx
    return d


def second_difference(y: np.ndarray, grid: Grid, parity: int = 1) -> np.ndarray:
    """Second-order central d2/dx2 along the last axis, same closure convention."""
    p = _pad(y, grid, parity, 1)
    n = y.shape[-1]
    d = p[..., 0:n] + p[..., 2:]
    d -= 2.0 * p[..., 1 : n + 1]
    d /= grid.dx * grid.dx
    return d


# ---------------------------------------------------------------------------
# Helmholtz operator (I - delta * D2)

class _HelmholtzSolver:
    """Factorization of I - delta*D2, built once and reused every stage.

    The operator is symmetric positive definite (it dominates the
    identity), so an LDL^T factorization of the tridiagonal core is
    enough; the periodic wrap couples only the first and last unknowns
    and is restored by a rank-one Sherman-Morrison correction.
    """

    def __init__(self, delta: float, grid: Grid):
        n = grid.n
        q = delta / (grid.dx * grid.dx)
        diag = np.full(n, 1.0 + 2.0 * q)
        # End diagonals are 1 + 3q either way: the periodic wrap is written
        # as T - q*w w^T with w = e_0 + e_{n-1} and restored by the rank-one
        # correction in solve(), while reflective grids use the odd mirror
        # closure (the solved field is velocity-like and vanishes at walls).
        diag[0] += q
        diag[-1] += q
        self._d, self._e, info = dpttrf(diag, np.full(n - 1, -q))
        if info != 0:
            raise NumericsError(f"Helmholtz factorization failed (dpttrf info = {info})")
        self._p = None
        if grid.boundary is BoundaryKind.PERIODIC:
            w = np.zeros(n)
            w[0] = w[-1] = 1.0
            self._p = p = self.solve(w)
            self._gain = q / (1.0 - q * (p[0] + p[-1]))

    def solve(self, z: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Overwrite z, a C-contiguous (n,) or (m, n) rhs, with the solution.

        scratch, shaped like z, holds the periodic correction term; without
        it that term is allocated.
        """
        # The (n, m) transpose is Fortran-ordered, so dpttrs solves each
        # column, one row of z, in z's own memory.
        _, info = dpttrs(self._d, self._e, z.reshape(-1, z.shape[-1]).T, overwrite_b=1)
        if info != 0:
            raise NumericsError(f"Helmholtz solve failed (dpttrs info = {info})")
        if self._p is not None:
            z += np.multiply(self._gain * (z[..., :1] + z[..., -1:]), self._p, out=scratch)
        return z


@lru_cache(maxsize=16)
def _helmholtz(delta: float, grid: Grid) -> _HelmholtzSolver:
    return _HelmholtzSolver(delta, grid)


def helmholtz_apply_inverse(rhs: np.ndarray, delta: float, grid: Grid) -> np.ndarray:
    """Solve z - delta * D2 z = rhs, rhs (n,) or (m, n); delta = 0 returns rhs unchanged."""
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != grid.n:
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({grid.n},) or (m, {grid.n})")
    z = rhs.copy()
    if delta == 0.0:
        return z
    return _helmholtz(delta, grid).solve(z)


# ---------------------------------------------------------------------------
# semidiscrete rates

class _Stage:
    """Preallocated buffers of the rate for one grid and batch shape."""

    def __init__(self, grid: Grid, shape: Tuple[int, ...]):
        self.grid = grid
        lead = shape[:-1]
        # Rows (-1 - eta) u, u, eta with two ghost cells at each end.
        self.pad = np.empty((3,) + lead + (grid.n + 4,))
        self.u = self.pad[1, ..., 2:-2]
        self.eta = self.pad[2, ..., 2:-2]
        # One (3, ...) rate buffer per RK4 stage: eta_t, u_t, scratch.
        self.k = tuple(np.empty((3,) + shape) for _ in range(4))
        # Mirror sign of each row at reflective walls: u is odd, eta even.
        self.parity = np.array([-1.0, -1.0, 1.0]).reshape((3,) + (1,) * len(shape))

    def rate(self, k: np.ndarray, delta: float, epsilon, dissipative: bool) -> None:
        """Rates of the state in the buffer interior into k[0] (eta_t) and k[1] (u_t)."""
        grid, p = self.grid, self.pad
        n = grid.n
        if np.min(self.eta) <= -1.0:
            raise NumericsError("vacuum state: 1 + eta reached zero")
        flux = p[0, ..., 2:-2]
        np.subtract(-1.0, self.eta, out=flux)
        flux *= self.u
        if grid.boundary is BoundaryKind.PERIODIC:
            p[..., :2] = p[..., n : n + 2]
            p[..., n + 2 :] = p[..., 2:4]
        else:
            np.multiply(p[..., 3:1:-1], self.parity, out=p[..., :2])
            np.multiply(p[..., n + 1 : n - 1 : -1], self.parity, out=p[..., n + 2 :])
        np.subtract(p[..., 3 : n + 3], p[..., 1 : n + 1], out=k)
        k *= 8.0
        k += p[..., 0:n]
        k -= p[..., 4:]
        k /= 12.0 * grid.dx
        forcing = k[1]
        forcing *= self.u
        forcing += k[2]
        np.negative(forcing, out=forcing)
        if dissipative:
            # Second difference of u into the spent rows: k[2] and the flux.
            d2 = k[2]
            np.add(p[1, ..., 1 : n + 1], p[1, ..., 3 : n + 3], out=d2)
            d2 -= np.multiply(self.u, 2.0, out=flux)
            d2 /= grid.dx * grid.dx
            d2 *= epsilon
            forcing += d2
        if delta != 0.0:
            _helmholtz(delta, grid).solve(forcing, scratch=k[2])


# The cached buffers are reused by every call on the same grid and batch
# shape; the package starts no threads, and this cache assumes none.
@lru_cache(maxsize=8)
def _stage(grid: Grid, shape: Tuple[int, ...]) -> _Stage:
    return _Stage(grid, shape)


def semidiscrete_rhs_peregrine(
    eta: np.ndarray, u: np.ndarray, delta: float, epsilon, grid: Grid
) -> Tuple[np.ndarray, np.ndarray]:
    """Time derivatives (eta_t, u_t) of the dispersive-dissipative system.

    eta and u are (n,) or (m, n) arrays; epsilon is a scalar, or an (m, 1)
    column with one value per batch row.
    """
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    eta, u = np.asarray(eta, dtype=float), np.asarray(u, dtype=float)
    if eta.shape != u.shape or eta.ndim not in (1, 2) or eta.shape[-1] != grid.n:
        raise ValueError(
            f"eta {eta.shape} and u {u.shape} must both be ({grid.n},) or (m, {grid.n})"
        )
    stage = _stage(grid, eta.shape)
    stage.eta[...] = eta
    stage.u[...] = u
    k = stage.k[0]
    stage.rate(k, delta, epsilon, bool(np.any(epsilon != 0.0)))
    return k[0].copy(), k[1].copy()


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    system: SystemKind
    grid: Grid
    ic: InitialCondition
    dt: float
    t_end: float
    delta: float = 0.0
    epsilon: float = 0.0
    snapshot_times: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "system", SystemKind(self.system))
        object.__setattr__(self, "snapshot_times", tuple(self.snapshot_times))
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not all(map(math.isfinite, (self.delta, self.epsilon, self.t_end))):
            raise ConfigError(
                f"delta, epsilon and t_end must be finite, got "
                f"({self.delta}, {self.epsilon}, {self.t_end})"
            )
        if self.t_end < 0.0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.delta < 0.0 or self.epsilon < 0.0:
            raise ConfigError("delta and epsilon must be >= 0")
        if self.system is SystemKind.PEREGRINE_INVISCID and self.epsilon != 0.0:
            raise ConfigError("the inviscid system has epsilon = 0 by definition")
        if self.system is SystemKind.SHALLOW_WATER and (
            self.delta != 0.0 or self.epsilon != 0.0
        ):
            raise ConfigError("the shallow-water system has delta = epsilon = 0")
        for ts in self.snapshot_times:
            if not 0.0 <= ts <= self.t_end + 0.5 * self.dt:
                raise ConfigError(f"snapshot time {ts} outside [0, t_end]")
        init = make_initial(self.ic, self.grid)
        bound = cfl_bound(init, self.grid)
        if self.dt > bound:
            raise ConfigError(
                f"dt = {self.dt} violates the advective bound {bound:.6g}"
            )


def _advective_bound(max_abs_u: float, max_eta: float, dx: float) -> float:
    return 0.9 * dx / (1.0 + max_abs_u + math.sqrt(1.0 + max(max_eta, 0.0)))


def cfl_bound(state: FieldPair, grid: Grid) -> float:
    """Largest admissible explicit step, 0.9*dx/(1 + max|u| + sqrt(1+max eta))."""
    return _advective_bound(np.max(np.abs(state.u)), np.max(state.eta), grid.dx)


# ---------------------------------------------------------------------------
# time stepping

def _rk4_step(state: FieldPair, config: RunConfig, epsilon) -> FieldPair:
    grid, dt = config.grid, config.dt
    eta, u = state.eta, state.u
    stage = _stage(grid, eta.shape)
    k1, k2, k3, k4 = stage.k
    args = (config.delta, epsilon, bool(np.any(epsilon != 0.0)))
    stage.eta[...] = eta
    stage.u[...] = u
    stage.rate(k1, *args)
    for k, prev, h in ((k2, k1, 0.5 * dt), (k3, k2, 0.5 * dt), (k4, k3, dt)):
        # Stage input y + h * prev, written straight into the buffer.
        np.multiply(prev[0], h, out=stage.eta)
        stage.eta += eta
        np.multiply(prev[1], h, out=stage.u)
        stage.u += u
        stage.rate(k, *args)
    # Sum k1 + 2 k2 + 2 k3 + k4 into k2 in place, then add it to the state
    # in fresh arrays: the returned state never aliases the workspace.
    k1, k2, k3, k4 = k1[:2], k2[:2], k3[:2], k4[:2]
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    out = np.empty(k2.shape)
    np.add(k2[0], eta, out=out[0])
    np.add(k2[1], u, out=out[1])
    return FieldPair(out[0], out[1], state.t + dt)


def _rusanov_step(state: FieldPair, config: RunConfig) -> FieldPair:
    grid, dt = config.grid, config.dt
    eta, u = state.eta, state.u
    if np.min(eta) <= -1.0:
        raise NumericsError("vacuum state: 1 + eta reached zero")
    n = grid.n
    # q holds (eta, u) over cells 0..n-1 with one ghost cell at each end:
    # the wrapped cell on periodic grids, the mirror state (eta, -u) at
    # walls.  Face j + 1/2 of q lies between q[:, j] and q[:, j + 1].
    q = np.empty((2, n + 2))
    q[0, 1:-1] = eta
    q[1, 1:-1] = u
    if grid.boundary is BoundaryKind.PERIODIC:
        q[:, 0] = q[:, n]
        q[:, -1] = q[:, 1]
    else:
        q[0, 0], q[1, 0] = q[0, 1], -q[1, 1]
        q[0, -1], q[1, -1] = q[0, n], -q[1, n]
    qe, qu = q
    # Per cell: the fluxes (u + eta u, eta + u^2 / 2) and the wave speed.
    f = np.empty_like(q)
    np.multiply(qe, qu, out=f[0])
    f[0] += qu
    np.multiply(qu, 0.5, out=f[1])
    f[1] *= qu
    f[1] += qe
    speed = np.add(qe, 1.0)
    np.sqrt(speed, out=speed)
    speed += np.abs(qu)
    # Per face: 0.5 (f_l + f_r) - 0.5 a (q_r - q_l), a the larger speed.
    half_a = np.maximum(speed[:-1], speed[1:])
    half_a *= 0.5
    flux = np.add(f[:, :-1], f[:, 1:])
    flux *= 0.5
    jump = np.subtract(q[:, 1:], q[:, :-1])
    jump *= half_a
    flux -= jump
    # Per cell: the flux difference, scaled by dt / dx.
    d = np.subtract(flux[:, 1:], flux[:, :-1], out=jump[:, :n])
    d *= dt / grid.dx
    out = np.subtract(q[:, 1:-1], d)
    return FieldPair(out[0], out[1], state.t + dt)


def _checked(out: FieldPair, config: RunConfig) -> FieldPair:
    """out, after checking it is finite and that dt still meets cfl_bound."""
    u_hi, u_lo = np.max(out.u), np.min(out.u)
    eta_hi, eta_lo = np.max(out.eta), np.min(out.eta)
    # NaN reaches every extreme, +inf a max, -inf a min.
    if not all(map(math.isfinite, (u_hi, u_lo, eta_hi, eta_lo))):
        raise NumericsError(f"non-finite field values at t = {out.t:.6g}")
    bound = _advective_bound(max(u_hi, -u_lo), eta_hi, config.grid.dx)
    if bound < config.dt:
        raise NumericsError(
            f"advective bound {bound:.6g} fell below dt = {config.dt} at t = {out.t:.6g}"
        )
    return out


def step(state: FieldPair, config: RunConfig) -> FieldPair:
    """Advance one dt; raises NumericsError on blow-up, vacuum, or a step
    that the advective bound of the new state no longer admits."""
    if config.system is SystemKind.SHALLOW_WATER:
        return _checked(_rusanov_step(state, config), config)
    return _checked(_rk4_step(state, config, config.epsilon), config)


def evolve(config: RunConfig, initial: Optional[FieldPair] = None) -> List[FieldPair]:
    """Run to t_end, returning snapshots at the requested times.

    Each requested time is mapped to the nearest whole step; with no
    requested times the final state alone is returned.  Deterministic:
    the same config always produces bit-identical snapshots.  initial
    replaces the configured initial condition (used to seed a run with an
    interpolated traveling-wave profile).
    """
    if initial is None:
        state = make_initial(config.ic, config.grid)
    else:
        if initial.eta.size != config.grid.n:
            raise ValueError("initial state does not match the grid")
        state = initial.copy()
        state.t = 0.0
    return _march(state, config, lambda s: step(s, config))


def _march(state: FieldPair, config: RunConfig, advance: Callable) -> List[FieldPair]:
    """Apply advance up to t_end; copies of the state at the snapshot steps."""
    n_total = int(round(config.t_end / config.dt))
    requested = config.snapshot_times or (config.t_end,)
    targets = [min(max(int(round(ts / config.dt)), 0), n_total) for ts in requested]
    wanted = {}
    for pos, k in enumerate(targets):
        wanted.setdefault(k, []).append(pos)
    snapshots: List[Optional[FieldPair]] = [None] * len(targets)
    for pos in wanted.get(0, []):
        snapshots[pos] = state.copy()
    for k in range(1, n_total + 1):
        state = advance(state)
        for pos in wanted.get(k, []):
            snapshots[pos] = state.copy()
    return snapshots


# ---------------------------------------------------------------------------
# diagnostics and norms

def discrete_mass(state: FieldPair, grid: Grid) -> float:
    """Integral of eta; exactly conserved on periodic grids."""
    return float(np.sum(state.eta) * grid.dx)


def energy_functional(state: FieldPair, grid: Grid, delta: float) -> float:
    """Integral of eta**2 + (1+eta) u**2 + delta u_x**2.

    Decays monotonically on every dissipative run we have checked, but it
    is a diagnostic, not a scheme guarantee; tests allow roundoff slack.
    """
    ux = first_difference(state.u, grid, parity=-1)
    dens = state.eta**2 + (1.0 + state.eta) * state.u**2 + delta * ux**2
    return float(np.sum(dens) * grid.dx)


def error_norm(a: FieldPair, b: FieldPair, grid: Grid) -> float:
    """sqrt(||h||^2 + ||w||^2 + ||w_x||^2) with discrete L2 norms."""
    if a.eta.size != grid.n or b.eta.size != grid.n:
        raise ValueError("states do not match the grid")
    if abs(a.t - b.t) > 1e-9:
        raise ValueError(f"states at different times {a.t} and {b.t}")
    h = a.eta - b.eta
    w = a.u - b.u
    wx = first_difference(w, grid, parity=-1)
    return math.sqrt(grid.dx * float(np.dot(h, h) + np.dot(w, w) + np.dot(wx, wx)))


@dataclass(frozen=True)
class ErrorSeries:
    """Deviation-from-inviscid history y(t) for one dissipation strength."""

    times: np.ndarray
    y: np.ndarray
    epsilon: float


@dataclass(frozen=True)
class ErrorFit:
    """Least-squares gain K of the law y(t) = K * epsilon * t."""

    epsilon: float
    gain: float
    window: Tuple[float, float]
    n_points: int


@dataclass(frozen=True)
class ErrorStudyResult:
    series: Tuple[ErrorSeries, ...]
    fits: Tuple[ErrorFit, ...]


def error_study(base_config: RunConfig, epsilons: Sequence[float]) -> ErrorStudyResult:
    """Deviation of dissipative runs from the epsilon = 0 run.

    All runs share the grid, step, and initial data of base_config; only
    epsilon varies, so they advance together as the rows of one batch,
    row 0 being the epsilon = 0 reference.  Each row matches a standalone
    evolve() run of its epsilon.  The fitted gain uses the window t >= 1
    with y below 10% of the initial-data norm, before the linear law
    saturates.
    """
    if len(epsilons) == 0:
        raise ConfigError("error study needs at least one epsilon")
    if not all(0.0 < e < math.inf for e in epsilons):
        raise ConfigError("error-study epsilons must be positive and finite")
    if not base_config.snapshot_times:
        raise ConfigError("error study needs snapshot_times in the base config")
    if base_config.system is not SystemKind.PEREGRINE_DISSIPATIVE:
        raise ConfigError("error study needs the peregrine-dissipative system")

    init = make_initial(base_config.ic, base_config.grid)
    runs = 1 + len(epsilons)
    batch = FieldPair(np.tile(init.eta, (runs, 1)), np.tile(init.u, (runs, 1)))
    column = np.array([0.0] + [float(e) for e in epsilons])[:, None]
    snapshots = _march(
        batch, base_config, lambda s: _checked(_rk4_step(s, base_config, column), base_config)
    )
    reference, *dissipative = (
        [FieldPair(s.eta[r], s.u[r], s.t) for s in snapshots] for r in range(runs)
    )

    zero = FieldPair(np.zeros(base_config.grid.n), np.zeros(base_config.grid.n), 0.0)
    ic_norm = error_norm(init, zero, base_config.grid)

    series = []
    fits = []
    times = np.array([s.t for s in reference])
    for eps, snaps in zip(epsilons, dissipative):
        y = np.array(
            [error_norm(a, b, base_config.grid) for a, b in zip(snaps, reference)]
        )
        series.append(ErrorSeries(times=times.copy(), y=y, epsilon=float(eps)))
        mask = (times >= 1.0) & (y > 0.0) & (y < 0.1 * ic_norm)
        if not np.any(mask):
            raise NumericsError(
                f"no usable fit window for epsilon = {eps}; "
                "request snapshots between onset and saturation"
            )
        xt = float(eps) * times[mask]
        gain = float(np.dot(y[mask], xt) / np.dot(xt, xt))
        fits.append(
            ErrorFit(
                epsilon=float(eps),
                gain=gain,
                window=(float(times[mask].min()), float(times[mask].max())),
                n_points=int(np.count_nonzero(mask)),
            )
        )
    return ErrorStudyResult(series=tuple(series), fits=tuple(fits))


# ---------------------------------------------------------------------------
# classical shock reference

def shallow_water_shock_reference(c: float) -> Tuple[float, float, float]:
    """Jump state (eta, u) and speed of the classical shock moving at c.

    The downstream state is rest; the upstream state is the same pair the
    traveling-wave tails approach, so the dispersive-dissipative front and
    the classical shock carry identical far fields.
    """
    if not c >= 1.0:
        raise ValueError(f"shock reference needs c >= 1, got {c}")
    u0 = 0.5 * (3.0 * c - math.sqrt(c * c + 8.0))
    return u0 / (c - u0), u0, c


# ---------------------------------------------------------------------------
# profile injection and front tracking

def sample_profile_on_grid(
    profile,
    grid: Grid,
    blend_center: Optional[float] = None,
    blend_width: float = 10.0,
) -> FieldPair:
    """Interpolate a traveling-wave profile onto a grid as initial data.

    Outside the sampled span the fields are held at their end values (the
    two constant tails).  On periodic grids the upstream plateau must be
    ramped back to zero somewhere far from the front: passing blend_center
    multiplies both fields by (1 + tanh((x - blend_center)/blend_width))/2.
    """
    x = grid.x
    xq = np.clip(x, profile.xi[0], profile.xi[-1])
    eta = CubicSpline(profile.xi, profile.eta)(xq)
    u = CubicSpline(profile.xi, profile.u)(xq)
    if blend_center is not None:
        ramp = 0.5 * (1.0 + np.tanh((x - blend_center) / blend_width))
        eta = eta * ramp
        u = u * ramp
    return FieldPair(eta, u, 0.0)


def front_position(state: FieldPair, grid: Grid, level: float) -> float:
    """x of the rightmost downward crossing of eta through level."""
    s = state.eta - level
    idx = np.nonzero((s[:-1] >= 0.0) & (s[1:] < 0.0))[0]
    if idx.size == 0:
        raise NumericsError(f"no downward crossing of eta = {level}")
    i = idx[-1]
    x = grid.x
    return float(x[i] + grid.dx * s[i] / (s[i] - s[i + 1]))


def shape_misfit(
    reference: FieldPair,
    evolved: FieldPair,
    grid: Grid,
    shift: float = 0.0,
    window: Optional[Tuple[float, float]] = None,
) -> float:
    """Discrete L2 distance between evolved and the shifted reference.

    The reference fields are spline-translated by shift before comparing,
    so a pure traveling wave scores near zero when shift = c*t.  window
    restricts the comparison to [lo, hi] in x.
    """
    x = grid.x
    mask = np.ones(grid.n, dtype=bool)
    if window is not None:
        mask = (x >= window[0]) & (x <= window[1])
    xs = np.clip(x[mask] - shift, x[0], x[-1])
    d_eta = evolved.eta[mask] - CubicSpline(x, reference.eta)(xs)
    d_u = evolved.u[mask] - CubicSpline(x, reference.u)(xs)
    return math.sqrt(grid.dx * float(np.dot(d_eta, d_eta) + np.dot(d_u, d_u)))


# ---------------------------------------------------------------------------
# export

def write_snapshot_csv(state: FieldPair, grid: Grid, path) -> None:
    write_csv(path, "x,eta,u", [grid.x, state.eta, state.u])


def snapshot_manifest(config: RunConfig, state: FieldPair) -> dict:
    return {
        "system": config.system.value,
        "delta": config.delta,
        "epsilon": config.epsilon,
        "dx": config.grid.dx,
        "dt": config.dt,
        "t": state.t,
    }


def write_snapshot_manifest(config: RunConfig, state: FieldPair, path) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot_manifest(config, state), fh, indent=2)
        fh.write("\n")


def write_error_series_csv(series: ErrorSeries, path) -> None:
    write_csv(path, "t,y", [series.times, series.y])

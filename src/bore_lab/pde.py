"""Method-of-lines evolution of the dissipative long-wave system.

The semidiscrete form uses a fourth-order central first difference for the
flux terms, a second-order central second difference for the dissipation,
and a direct solve of the elliptic operator (I - delta * D2) that the mixed
derivative term induces on u_t.  Time stepping is classical RK4; the
elliptic solve removes the third-derivative stiffness so the remaining CFL
restriction is advective.

Each RK4 stage evaluates the rate in one pass over a workspace cached for
the run's (grid, batch shape): ten arrays per cell and batch row.  A padded
(3, ..., n + 4) buffer holds the rows (-1 - eta) u, eta and u, two ghost
cells at each end, mirrored with the signs -1, +1, -1 at reflective walls.
The stage input y + h k is written into the interior of the adjacent
(eta, u) rows with one multiply and one add over the (2, ...) block; one
five-point stencil pass gives the three first differences into that
stage's three rows of a (7, ..., n) rate block, and the second difference
of u is read from the same padded row.  The stencils scale by the
reciprocals 1/(12 dx) and 1/dx**2, so no pass divides.  A stage's first
row ends as eta_t; its second is built into the momentum forcing
D1 eta + u D1 u and becomes epsilon D2 u - forcing in one subtraction,
then is solved in place to u_t; its third is scratch.  Stage j takes rows
2j to 2j + 2, so its scratch row is the next stage's first, and k4 takes
k3's rows once k3 is spent.  One path serves every delta, epsilon >= 0:
at delta = 0 the solve applies the identity.

Every run is one march calling step once per dt and yielding the states
that requested times map to.  evolve copies them as snapshots; the
`evolve` command instead writes each to its files as it is yielded.  A
tuple epsilon makes a batch: one row per value, sharing grid, step and
initial data, stepped together with epsilon as an (m, 1) column.
error_study marches such a batch and folds each yielded state into one
error norm per row.  So neither command's memory grows with the number
of snapshot times.  A march releases the cached workspace and Helmholtz
factorization when it ends: a process holds one run's at most, and none
between runs.

A first-order finite-volume solver for the dispersionless shallow-water
reduction lives here as well, used as the classical-shock reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._scipy import extension
from .csvio import write_csv, write_json
from .errors import ConfigError, NumericsError


class BoundaryKind(str, Enum):
    PERIODIC = "periodic"
    REFLECTIVE = "reflective"


class SystemKind(str, Enum):
    PEREGRINE_DISSIPATIVE = "peregrine-dissipative"
    PEREGRINE_INVISCID = "peregrine-inviscid"
    SHALLOW_WATER = "shallow-water"


# Largest grid accepted, 160 times the presets' 6400 cells: one field on
# it is 8 MiB, where a slip in x_min, x_max or dx could otherwise ask
# numpy for terabytes.
MAX_GRID_CELLS = 2**20

# Largest run accepted, in cell-steps (steps x cells x batch rows): over
# 100 times the largest preset or bench run, an error study of 5 rows x
# 1000 steps x 3200 cells = 1.6e7, and a few minutes of RK4.
MAX_CELL_STEPS = 2 * 10**9

# Largest memory a run may hold, in bytes: rows x cells x 8 x
# (10 + 2 x snapshots) for evolve, 10 arrays being the RK4 stage workspace
# per cell and row and 2 the eta and u of each snapshot copy, and
# rows x cells x 8 x 10 for error_study, which keeps no snapshot.  The
# evolve command keeps none either, writing each as it is reached, but is
# refused as evolve would be: there the snapshot term caps what it writes.
# About 840 times the 1.28 MB so counted of the acceptance error study,
# the largest preset or bench run.
MAX_RUN_BYTES = 2**30

# Arrays per cell and batch row in the RK4 stage workspace (_Stage): the
# three padded rows and the seven rows of the rate block.
_WORKSPACE_ARRAYS = 10

# End of RK4's stability interval on the negative real axis (Hairer &
# Wanner, Solving ODEs II, IV.2).
_RK4_REAL_LIMIT = 2.785


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
        if self.n > MAX_GRID_CELLS:
            raise ConfigError(f"grid needs n <= {MAX_GRID_CELLS} (2**20), got {self.n}")
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

def _fill_ghosts(p: np.ndarray, grid: Grid, parity) -> None:
    """Fill the ghost cells around grid.n interior cells on p's last axis:
    wrapped if periodic, else mirrored times parity (a sign, or one per row)."""
    n = grid.n
    w = (p.shape[-1] - n) // 2
    if grid.boundary is BoundaryKind.PERIODIC:
        p[..., :w] = p[..., n : n + w]
        p[..., n + w :] = p[..., w : 2 * w]
    else:
        np.multiply(p[..., 2 * w - 1 : w - 1 : -1], parity, out=p[..., :w])
        np.multiply(p[..., n + w - 1 : n - 1 : -1], parity, out=p[..., n + w :])


def _pad(y: np.ndarray, grid: Grid, parity) -> np.ndarray:
    p = np.empty(y.shape[:-1] + (y.shape[-1] + 4,))
    p[..., 2:-2] = y
    _fill_ghosts(p, grid, parity)
    return p


def _d1(p: np.ndarray, dx: float, out=None) -> np.ndarray:
    """Five-point central d/dx of rows padded by two ghost cells each end."""
    n = p.shape[-1] - 4
    d = np.subtract(p[..., 3 : n + 3], p[..., 1 : n + 1], out=out)
    d *= 8.0
    d += p[..., 0:n]
    d -= p[..., 4:]
    d *= 1.0 / (12.0 * dx)
    return d


def _d2(p: np.ndarray, dx: float, out=None, scratch=None) -> np.ndarray:
    """Three-point central d2/dx2 of rows padded as for _d1; scratch gets 2p."""
    n = p.shape[-1] - 4
    d = np.add(p[..., 1 : n + 1], p[..., 3 : n + 3], out=out)
    d -= np.multiply(p[..., 2 : n + 2], 2.0, out=scratch)
    d *= 1.0 / (dx * dx)
    return d


def first_difference(y: np.ndarray, grid: Grid, parity: int = 1) -> np.ndarray:
    """Fourth-order central d/dx along the last axis.

    parity selects the mirror closure on reflective grids: +1 for fields
    even about the walls (eta), -1 for odd fields (u).  Ignored on
    periodic grids.
    """
    return _d1(_pad(y, grid, parity), grid.dx)


def second_difference(y: np.ndarray, grid: Grid, parity: int = 1) -> np.ndarray:
    """Second-order central d2/dx2 along the last axis, same closure convention."""
    return _d2(_pad(y, grid, parity), grid.dx)


# ---------------------------------------------------------------------------
# Helmholtz operator (I - delta * D2)

class _HelmholtzSolver:
    """Factorization of I - delta*D2, built once and reused every stage.

    The operator is symmetric positive definite (it dominates the
    identity), so an LDL^T factorization of the tridiagonal core is
    enough; the periodic wrap couples only the first and last unknowns
    and is restored by a rank-one Sherman-Morrison correction.

    LAPACK's dpttrf and dpttrs come from scipy's compiled
    scipy.linalg._flapack, loaded from its file without scipy.linalg's
    package init; they are the very objects scipy.linalg.lapack exports.
    """

    def __init__(self, delta: float, grid: Grid):
        flapack = extension("scipy.linalg._flapack")
        dpttrf, self._dpttrs = flapack.dpttrf, flapack.dpttrs
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
            # p decays geometrically from both ends and mid-domain falls to
            # subnormals (746 of 6400 entries on the sec4-riemann grid), on
            # which every correction multiply and add runs slowly.  Zeroed,
            # they drop terms below |gain (z_0 + z_{n-1})| * 2.2e-308, which
            # leave a z of ordinary size unchanged.
            p[np.abs(p) < np.finfo(float).tiny] = 0.0
            self._gain = q / (1.0 - q * (p[0] + p[-1]))

    def solve(self, z: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Overwrite z, a C-contiguous (n,) or (m, n) rhs, with the solution.

        scratch, shaped like z, holds the periodic correction term; without
        it that term is allocated.
        """
        # The (n, m) transpose is Fortran-ordered, so dpttrs solves each
        # column, one row of z, in z's own memory.
        _, info = self._dpttrs(self._d, self._e, z.reshape(-1, z.shape[-1]).T, overwrite_b=1)
        if info != 0:
            raise NumericsError(f"Helmholtz solve failed (dpttrs info = {info})")
        if self._p is not None:
            z += np.multiply(self._gain * (z[..., :1] + z[..., -1:]), self._p, out=scratch)
        return z


# Every run factors one (delta, grid), kept while its march runs (_march
# releases it), so a process holds one at most, whatever the runs before it.
@lru_cache(maxsize=1)
def _helmholtz(delta: float, grid: Grid) -> _HelmholtzSolver:
    return _HelmholtzSolver(delta, grid)


def helmholtz_apply_inverse(rhs: np.ndarray, delta: float, grid: Grid) -> np.ndarray:
    """Solve z - delta * D2 z = rhs, rhs (n,) or (m, n), into a new array;
    at delta = 0 the factored operator is the identity."""
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != grid.n:
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({grid.n},) or (m, {grid.n})")
    return _helmholtz(delta, grid).solve(rhs.copy())


# ---------------------------------------------------------------------------
# semidiscrete rates

class _Stage:
    """Preallocated buffers of the rate for one grid and batch shape."""

    def __init__(self, grid: Grid, shape: Tuple[int, ...]):
        self.grid = grid
        lead = shape[:-1]
        # Rows (-1 - eta) u, eta, u with two ghost cells at each end; the
        # stage input (eta, u) is the interior of the last two.
        self.pad = np.empty((3,) + lead + (grid.n + 4,))
        self.y = self.pad[1:, ..., 2:-2]
        self.eta, self.u = self.y
        # The rates of the RK4 stages: stage j's eta_t, u_t and scratch
        # are rows 2j to 2j + 2 (_rk4_step).
        self.k = np.empty((7,) + shape)
        # Mirror sign of each row at reflective walls: u is odd, eta even.
        self.parity = np.array([-1.0, 1.0, -1.0]).reshape((3,) + (1,) * len(shape))

    def rate(self, k: np.ndarray, delta: float, epsilon) -> None:
        """Rates of the state in self.y into k[0] (eta_t) and k[1] (u_t),
        u_t = (I - delta D2)^-1 (epsilon D2 u - D1 eta - u D1 u) at any
        delta, epsilon >= 0; epsilon a scalar or an (m, 1) column."""
        grid, p = self.grid, self.pad
        flux = p[0, ..., 2:-2]
        np.subtract(-1.0, self.eta, out=flux)
        flux *= self.u
        _fill_ghosts(p, grid, self.parity)
        _d1(p, grid.dx, out=k)
        # The forcing D1 eta + u D1 u, built in place in k[1].
        forcing = k[1]
        k[2] *= self.u
        forcing += k[2]
        # Second difference of u into the spent rows: k[2] and the flux.
        d2 = _d2(p[2], grid.dx, out=k[2], scratch=flux)
        d2 *= epsilon
        np.subtract(d2, forcing, out=forcing)
        _helmholtz(delta, grid).solve(forcing, scratch=k[2])


# The cached buffers are reused by every call on the same grid and batch
# shape, so this cache assumes one calling thread.  Loading LAPACK for the
# Helmholtz solve starts OpenBLAS's thread pool, but dpttrs runs on the
# calling thread, and the package starts no thread of its own.  Every run
# uses one grid and one batch shape, so one workspace is kept, and only
# while the run's march lasts (_march releases it): MAX_RUN_BYTES then
# bounds the process as well as the run, and a process between runs holds
# no workspace.
@lru_cache(maxsize=1)
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
    k = stage.k[:3]
    stage.rate(k, delta, epsilon)
    return k[0].copy(), k[1].copy()


# ---------------------------------------------------------------------------
# run configuration

@dataclass(frozen=True)
class RunConfig:
    """A PDE run; a tuple epsilon (peregrine-dissipative only) is a batch, one row each."""

    system: SystemKind
    grid: Grid
    ic: InitialCondition
    dt: float
    t_end: float
    delta: float = 0.0
    epsilon: Union[float, Tuple[float, ...]] = 0.0
    snapshot_times: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "system", SystemKind(self.system))
        object.__setattr__(self, "snapshot_times", tuple(self.snapshot_times))
        batch = isinstance(self.epsilon, tuple)
        epsilons = self.epsilon if batch else (self.epsilon,)
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not epsilons:
            raise ConfigError("an epsilon tuple needs one value per batch row, got none")
        if not all(map(math.isfinite, (self.delta, *epsilons, self.t_end))):
            raise ConfigError(
                f"delta, epsilon and t_end must be finite, got "
                f"({self.delta}, {self.epsilon}, {self.t_end})"
            )
        if self.t_end < 0.0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.delta < 0.0 or min(epsilons) < 0.0:
            raise ConfigError("delta and epsilon must be >= 0")
        if batch and self.system is not SystemKind.PEREGRINE_DISSIPATIVE:
            raise ConfigError("a batch of epsilons needs the peregrine-dissipative system")
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
        _check_work(self, max(epsilons), len(epsilons))


def _check_work(config: RunConfig, epsilon: float, rows: int) -> None:
    """Refuse damping beyond RK4's real stability interval, the largest rate
    of epsilon (I - delta D2)^-1 D2 being 4 epsilon / (dx**2 + 4 delta) at
    any delta >= 0, runs of more than MAX_CELL_STEPS, and RK4 workspaces of
    more than MAX_RUN_BYTES; evolve adds its snapshots (_check_bytes)."""
    damping = config.dt * 4.0 * epsilon / (config.grid.dx**2 + 4.0 * config.delta)
    if damping > _RK4_REAL_LIMIT:
        raise ConfigError(
            f"dt = {config.dt} violates the RK4 damping bound at epsilon = {epsilon}: "
            f"dt * 4 epsilon / (dx**2 + 4 delta) = {damping:.6g} > {_RK4_REAL_LIMIT}"
        )
    # round(x, 0) stays a float, so a vanishing dt gives inf, not OverflowError.
    cell_steps = round(config.t_end / config.dt, 0) * config.grid.n * rows
    if cell_steps > MAX_CELL_STEPS:
        raise ConfigError(
            f"the run takes {cell_steps:.3g} cell-steps (steps x cells x rows), "
            f"over the cell-step budget {MAX_CELL_STEPS:.3g}"
        )
    _check_bytes(config, rows, 0)


def _check_bytes(config: RunConfig, rows: int, snapshots: int) -> None:
    """Refuse a run whose RK4 workspace and snapshot copies, the eta and u
    of each, would hold more than MAX_RUN_BYTES."""
    run_bytes = rows * config.grid.n * 8 * (_WORKSPACE_ARRAYS + 2 * snapshots)
    if run_bytes > MAX_RUN_BYTES:
        raise ConfigError(
            f"the run holds {run_bytes:.3g} bytes (rows x cells x 8 x "
            f"({_WORKSPACE_ARRAYS} + 2 x {snapshots} snapshots)), "
            f"over the memory budget {MAX_RUN_BYTES} (2**30)"
        )


def _advective_bound(max_abs_u: float, max_eta: float, dx: float) -> float:
    return 0.9 * dx / (1.0 + max_abs_u + math.sqrt(1.0 + max(max_eta, 0.0)))


def cfl_bound(state: FieldPair, grid: Grid) -> float:
    """Largest admissible explicit step, 0.9*dx/(1 + max|u| + sqrt(1+max eta))."""
    return _advective_bound(np.max(np.abs(state.u)), np.max(state.eta), grid.dx)


# ---------------------------------------------------------------------------
# time stepping

def _rk4_step(state: FieldPair, config: RunConfig, epsilon) -> np.ndarray:
    """The (2, ...) block (eta, u) one RK4 step after state, in a fresh array."""
    grid, dt = config.grid, config.dt
    y = np.stack((state.eta, state.u))
    stage = _stage(grid, state.eta.shape)
    # Stage j's rates are rows 2j to 2j + 2 of the block, so its scratch row
    # is the next stage's first, which that stage has not yet written.
    k1, k2, k3 = (stage.k[j : j + 3] for j in (0, 2, 4))
    stage.y[...] = y
    stage.rate(k1, config.delta, epsilon)
    for k, prev, h in ((k2, k1, 0.5 * dt), (k3, k2, 0.5 * dt), (k3, k3, dt)):
        # Stage input y + h * prev, written straight into the buffer.
        np.multiply(prev[:2], h, out=stage.y)
        stage.y += y
        if k is prev:
            # k3 is spent once it is in the stage input and in k2 + k3, so
            # k4 takes its rows.
            k2[:2] += k3[:2]
        stage.rate(k, config.delta, epsilon)
    # Sum ((k2 + k3) 2 + k1) + k4 into k2 in place, then add it to y, the
    # stacked copy of the state: the result never aliases the workspace.
    k1, k2, k4 = k1[:2], k2[:2], k3[:2]
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    y += k2
    return y


def _rusanov_step(state: FieldPair, config: RunConfig) -> np.ndarray:
    """The (2, n) block (eta, u) one Rusanov step after state."""
    grid, dt = config.grid, config.dt
    eta, u = state.eta, state.u
    n = grid.n
    # q holds (eta, u) over cells 0..n-1 with one ghost cell at each end:
    # the wrapped cell on periodic grids, the mirror state (eta, -u) at
    # walls.  Face j + 1/2 of q lies between q[:, j] and q[:, j + 1].
    q = np.empty((2, n + 2))
    q[0, 1:-1] = eta
    q[1, 1:-1] = u
    _fill_ghosts(q, grid, np.array([[1.0], [-1.0]]))
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
    return np.subtract(q[:, 1:-1], d)


def _checked(y: np.ndarray, t: float, config: RunConfig) -> FieldPair:
    """The state (eta, u) = y, a (2, ...) block, at t, once checked finite,
    then 1 + eta > 0, then dt within cfl_bound."""
    axes = tuple(range(1, y.ndim))
    # Read as Python floats, which compare faster than numpy scalars.
    (eta_hi, u_hi), (eta_lo, u_lo) = (
        np.max(y, axis=axes).tolist(), np.min(y, axis=axes).tolist()
    )
    # NaN reaches every extreme, +inf a max, -inf a min.
    if not all(map(math.isfinite, (u_hi, u_lo, eta_hi, eta_lo))):
        raise NumericsError(f"non-finite field values at t = {t:.6g}")
    if eta_lo <= -1.0:
        raise NumericsError(f"vacuum state: 1 + eta reached zero at t = {t:.6g}")
    bound = _advective_bound(max(u_hi, -u_lo), eta_hi, config.grid.dx)
    if bound < config.dt:
        raise NumericsError(
            f"advective bound {bound:.6g} fell below dt = {config.dt} at t = {t:.6g}"
        )
    return FieldPair(y[0], y[1], t)


def step(state: FieldPair, config: RunConfig) -> FieldPair:
    """Advance one dt; NumericsError unless the new state passes _checked."""
    t = state.t + config.dt
    if config.system is SystemKind.SHALLOW_WATER:
        return _checked(_rusanov_step(state, config), t, config)
    epsilon = config.epsilon
    if isinstance(epsilon, tuple):
        epsilon = np.array(epsilon)[:, None]
    return _checked(_rk4_step(state, config, epsilon), t, config)


def _march(
    config: RunConfig, initial: Optional[FieldPair]
) -> Iterator[Tuple[List[int], FieldPair]]:
    """Step from the initial state to t_end, yielding (positions, state) at
    each step that requested times map to.

    The requested times are config.snapshot_times, or (t_end,) if there are
    none, and positions indexes them.  Each is mapped to the nearest whole
    step.  The march writes no yielded state again and drops each at the
    next step: a caller that keeps one keeps its memory.  When the march
    ends, finished, failed or closed, it releases the cached RK4 workspace
    and Helmholtz factorization.
    """
    n = config.grid.n
    shape = (len(config.epsilon), n) if isinstance(config.epsilon, tuple) else (n,)
    if initial is None:
        init = make_initial(config.ic, config.grid)
        state = FieldPair(np.broadcast_to(init.eta, shape), np.broadcast_to(init.u, shape))
    else:
        if initial.eta.shape != shape:
            raise ValueError(f"initial state has shape {initial.eta.shape}, the run {shape}")
        state = FieldPair(initial.eta, initial.u, 0.0)
    n_total = int(round(config.t_end / config.dt))
    wanted: Dict[int, List[int]] = {}
    for pos, ts in enumerate(config.snapshot_times or (config.t_end,)):
        wanted.setdefault(min(max(int(round(ts / config.dt)), 0), n_total), []).append(pos)
    try:
        _checked(np.stack((state.eta, state.u)), state.t, config)
        if 0 in wanted:
            yield wanted[0], state
        for k in range(1, n_total + 1):
            state = step(state, config)
            if k in wanted:
                yield wanted[k], state
    finally:
        # The run's workspace and factorization go with it, so no run
        # shares the process with another's: a reference run after an RK4
        # run holds none, nor does a process between runs.
        _stage.cache_clear()
        _helmholtz.cache_clear()


def evolve(config: RunConfig, initial: Optional[FieldPair] = None) -> List[FieldPair]:
    """Run to t_end, returning snapshots at the requested times.

    Each requested time is mapped to the nearest whole step; with no
    requested times the final state alone is returned.  Deterministic:
    the same config always produces bit-identical snapshots, (rows, n) for
    a batch config.  initial, shaped as the run, replaces the configured
    initial condition (used to seed a run with a traveling-wave profile).
    ConfigError, before the first step, if the snapshots would take the
    run over MAX_RUN_BYTES.
    """
    requested = config.snapshot_times or (config.t_end,)
    rows = len(config.epsilon) if isinstance(config.epsilon, tuple) else 1
    _check_bytes(config, rows, len(requested))
    snapshots: List[Optional[FieldPair]] = [None] * len(requested)
    for positions, state in _march(config, initial):
        for pos in positions:
            snapshots[pos] = state.copy()
    return snapshots


# ---------------------------------------------------------------------------
# diagnostics and norms

def discrete_mass(state: FieldPair, grid: Grid) -> float:
    """Integral of eta; exactly conserved on periodic grids."""
    return float(np.sum(state.eta) * grid.dx)


def energy_functional(state: FieldPair, grid: Grid, delta: float) -> float:
    """Integral of eta**2 + (1+eta) u**2 + delta u_x**2.

    A diagnostic, not a Lyapunov functional of the system: it can grow on
    a dissipative run.  On a periodic 256-cell grid over [-40, 40], a
    Gaussian of amplitude -0.949 and width 5 with delta = 1.064 and
    epsilon = 42.34 grows it by 7.1e-7 relative over 8 steps, identically
    at dt, dt/4 and dt/16, so not through the time stepper.
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

    One march of base_config with epsilon = (0, *epsilons): the rows of the
    batch share grid, step and initial data, row 0 being the reference,
    and each matches a standalone evolve() run of its epsilon.  At each
    snapshot time the rows 1..m are reduced to their error_norm against
    row 0 at once, so the study holds floats, not snapshots.  The fitted
    gain uses the window t >= 1 with y below 10% of the initial-data norm,
    before the linear law saturates.
    """
    if len(epsilons) == 0:
        raise ConfigError("error study needs at least one epsilon")
    if not all(0.0 < e < math.inf for e in epsilons):
        raise ConfigError("error-study epsilons must be positive and finite")
    if not base_config.snapshot_times:
        raise ConfigError("error study needs snapshot_times in the base config")
    grid = base_config.grid
    times = np.empty(len(base_config.snapshot_times))
    ys = np.empty((len(epsilons), times.size))
    for positions, state in _march(replace(base_config, epsilon=(0.0, *epsilons)), None):
        reference = FieldPair(state.eta[0], state.u[0], state.t)
        norms = [
            error_norm(FieldPair(eta, u, state.t), reference, grid)
            for eta, u in zip(state.eta[1:], state.u[1:])
        ]
        times[positions] = state.t
        ys[:, positions] = np.array(norms)[:, None]

    init = make_initial(base_config.ic, grid)
    zero = FieldPair(np.zeros(grid.n), np.zeros(grid.n), 0.0)
    ic_norm = error_norm(init, zero, grid)

    series = []
    fits = []
    for eps, y in zip(epsilons, ys):
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
    if not blend_width > 0.0:
        raise ValueError(f"blend_width must be positive, got {blend_width}")
    from scipy.interpolate import CubicSpline

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
    restricts the comparison to [lo, hi] in x and must hold a grid point.
    """
    from scipy.interpolate import CubicSpline

    x = grid.x
    mask = np.ones(grid.n, dtype=bool)
    if window is not None:
        mask = (x >= window[0]) & (x <= window[1])
        if not np.any(mask):
            raise ValueError(f"window {window} holds no grid point of [{x[0]}, {x[-1]}]")
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
    write_json(path, snapshot_manifest(config, state))


def write_error_series_csv(series: ErrorSeries, path) -> None:
    write_csv(path, "t,y", [series.times, series.y])

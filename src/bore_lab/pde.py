"""Method-of-lines evolution of the dissipative long-wave system.

The semidiscrete form uses a fourth-order central first difference for the
flux terms, a second-order central second difference for the dissipation,
and a direct solve of the elliptic operator (I - delta * D2) that the mixed
derivative term induces on u_t.  Time stepping is classical RK4; the
elliptic solve removes the third-derivative stiffness so the remaining CFL
restriction is advective.

A step marches only the cells it can move (_arcs): those within a margin of
a jump larger than _REST_TOL in each batch row's own state, and a slack.
It gathers them end to end into one block, with two ghost cells at each
end of each arc, and every other cell keeps its value bit for bit.  A row
whose arcs would reach a wall or cover its circle goes in whole, its ghost
cells wrapped or mirrored (eta even, u odd), and stays whole.  The layout
holds from step to step: a row is rescanned only when a face in a guard
band, the margin's faces inside an arc's ends, jumps, and only a state the
last step did not return is scanned whole.  Each RK4 stage evaluates the
rate in one pass over the block, in a workspace cached for the run: the
rows (-1 - eta) u, eta and u; one five-point stencil pass for their first
differences; the second difference of u from the same row, times each
row's epsilon; one dpttrs solve of the block, whose factor gives each arc
the head of one Dirichlet factor (u_t = 0 at its ghost cells), each whole
row the grid's own and its periodic correction, and each ghost cell an
identity row.  Stage j's eta_t, u_t and scratch are rows 2j to 2j + 2 of
a (7, block) rate block.  At delta = 0 the solve applies the identity.

Every run is one march calling step once per dt and yielding the states
that requested times map to, each read-only (_checked): evolve keeps them
as snapshots without copying, the `evolve` command writes each to its
files as it is yielded.  A tuple epsilon makes a batch: one row per value,
sharing grid, step and initial data, each stepped as its standalone run.
error_study marches such a batch and folds each yielded state into one
error norm per row.  So neither command's memory grows with the number of
snapshot times.  A march releases the cached workspace when it ends: a
process holds one run's at most, and none between runs.

A first-order finite-volume (Rusanov) solver for the dispersionless
shallow-water reduction lives here as well, used as the classical-shock
reference.  It marches the same kind of block at tolerance 0 and a reach
of one cell, byte for byte as the whole grid would be.
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
from .traveling_wave import hermite_interpolate, vector_field


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
# 1000 steps x 3200 cells = 1.6e7, and a few minutes of RK4.  It counts
# every cell a priori, as a step marching every row whole would take.
MAX_CELL_STEPS = 2 * 10**9

# Largest memory a run may hold, in bytes: rows x cells x 8 x
# (12 + 2 x snapshots) for evolve, 12 arrays being the RK4 stage workspace
# per cell and row, sized a priori for every row marched whole, and 2 the
# eta and u of each snapshot kept, and rows x cells x 8 x 12 for
# error_study, which keeps no snapshot.  The evolve command keeps none
# either, writing each as it is reached, but is refused as evolve would
# be: there the snapshot term caps what it writes.  The workspace's
# Helmholtz factors, 5n doubles whatever the rows, lie outside this count.
# About 700 times the 1.54 MB so counted of the c08 error study, the
# largest preset or bench run.
MAX_RUN_BYTES = 2**30

# Arrays per cell and batch row in the RK4 stage workspace (_Stage): the
# block's three rows, the rate block's seven and the block factor's two.
_WORKSPACE_ARRAYS = 12

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
        diag, off = np.full(n, 1.0 + 2.0 * q), np.full(n - 1, -q)
        # u_t = 0 past both ends: its factor's prefixes are the arcs' (_Stage).
        self.dirichlet = dpttrf(diag, off)[:2]
        # End diagonals are 1 + 3q either way: the periodic wrap is written
        # as T - q*w w^T with w = e_0 + e_{n-1} and restored by the rank-one
        # correction in correct(), while reflective grids use the odd mirror
        # closure (the solved field is velocity-like and vanishes at walls).
        diag[0] += q
        diag[-1] += q
        *self.factor, info = dpttrf(diag, off)
        if info != 0:
            raise NumericsError(f"Helmholtz factorization failed (dpttrf info = {info})")
        self._p = None
        if grid.boundary is BoundaryKind.PERIODIC:
            w = np.zeros(n)
            w[0] = w[-1] = 1.0
            self._p = p = self.solve(w, self.factor)
            # p decays geometrically from both ends and mid-domain falls to
            # subnormals (746 of 6400 entries on the sec4-riemann grid), on
            # which every correction multiply and add runs slowly.  Zeroed,
            # they drop terms below |gain (z_0 + z_{n-1})| * 2.2e-308, which
            # leave a z of ordinary size unchanged.
            p[np.abs(p) < np.finfo(float).tiny] = 0.0
            self._gain = q / (1.0 - q * (p[0] + p[-1]))

    def solve(self, z: np.ndarray, factor: Sequence[np.ndarray]) -> np.ndarray:
        """Overwrite z, a C-contiguous (n,) or (m, n) rhs, with its solution
        by factor, (d, e): the grid's own, self.factor, or a block's.  The
        periodic correction is not added: correct adds it."""
        # The (n, m) transpose is Fortran-ordered, so dpttrs solves each
        # column, one row of z, in z's own memory.
        _, info = self._dpttrs(*factor, z.reshape(-1, z.shape[-1]).T, overwrite_b=1)
        if info != 0:
            raise NumericsError(f"Helmholtz solve failed (dpttrs info = {info})")
        return z

    def correct(self, z: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Add the periodic rank-one term, in scratch if given, to z solved by the grid's factor."""
        if self._p is not None:
            z += np.multiply(self._gain * (z[..., :1] + z[..., -1:]), self._p, out=scratch)
        return z


def helmholtz_apply_inverse(rhs: np.ndarray, delta: float, grid: Grid) -> np.ndarray:
    """Solve z - delta * D2 z = rhs, rhs (n,) or (m, n), into a new array;
    at delta = 0 the factored operator is the identity."""
    if delta < 0.0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != grid.n:
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({grid.n},) or (m, {grid.n})")
    solver = _HelmholtzSolver(delta, grid)
    return solver.correct(solver.solve(rhs.copy(), solver.factor))


# ---------------------------------------------------------------------------
# semidiscrete rates

# Cells whose eta and u jump by at most this to their neighbours are at
# rest; a step moves only the cells within _margin of a larger jump.
_REST_TOL = 1e-17


def _margin(delta: float, grid: Grid) -> int:
    """Cells past a jump that a step moves by over _REST_TOL of its forcing,
    at most n: the 8 that four RK4 stages of the five-point stencil reach,
    and ln _REST_TOL / ln r, r = 2q / (1 + 2q + sqrt(1 + 4q)) the Helmholtz
    kernel's decay per cell at q = delta / dx**2 (157 at r = 0.779)."""
    q = delta / (grid.dx * grid.dx)
    r = 2.0 * q / (1.0 + 2.0 * q + math.sqrt(1.0 + 4.0 * q))
    if not (_REST_TOL > 0.0 and r < 1.0):
        return grid.n
    return min(8 + (math.ceil(math.log(_REST_TOL) / math.log(r)) if r > 0.0 else 0), grid.n)


def _arcs(y: np.ndarray, grid: Grid, parity, margin: int, p, jump, tol: float) -> Tuple[int, tuple]:
    """(w, segments): the (row, lo, hi) cells a step moves in y, a (2, rows,
    n) state of wall parities (+1, -1), where a face jumps by over tol, w
    whole rows first, lo < 0 across the seam.  Arcs merge unless four cells
    at rest part them, two ghost cells each, so a row's arcs and ghosts fit
    in n + 4; a row whose arcs would reach a wall or close a circle is
    whole.  p, (2, rows, n + 2), and jump, (2, rows, n + 1), are scratch."""
    n, periodic = grid.n, grid.boundary is BoundaryKind.PERIODIC
    p[..., 1:-1] = y
    _fill_ghosts(p, grid, parity)
    np.abs(np.subtract(p[..., 1:], p[..., :-1], out=jump), out=jump)
    whole, arcs = [], []
    for r, active in enumerate(np.maximum(jump[0], jump[1], out=jump[0]) > tol):
        # Runs of jumping faces; face j, left of cell j, moves j - 1 - margin to j + margin.
        b = [0, *(np.flatnonzero(active[1:] != active[:-1]) + 1).tolist(), n + 1]
        lo, hi = [], []
        for first, stop in zip(b[not active[0] :: 2], b[1 + (not active[0]) :: 2]):
            if hi and first - hi[-1] < 2 * margin + 6:
                hi[-1] = stop - 1
            else:
                lo, hi = lo + [first], hi + [stop - 1]
        if periodic and len(lo) > 1 and lo[0] + n - hi[-1] < 2 * margin + 6:
            lo[0] = lo.pop() - n
            hi.pop()
        cells = [(r, a - 1 - margin, b + margin) for a, b in zip(lo, hi)]
        if cells and (cells[0][2] - cells[0][1] >= n - 3 if periodic
                      else cells[0][1] < 2 or cells[-1][2] > n - 3):
            whole.append((r, 0, n - 1))
        else:
            arcs += cells
    return len(whole), tuple(whole + arcs)


# Cells a rescan adds to each side of an arc beyond its margin, so that the
# layout holds while the waves cross them.  At 32, sec4-riemann rescans 15
# times in 2,400 steps (54 at 8), and its first block holds 1,099 cells.
_SLACK = 32


class _Stage:
    """The block of one grid and batch shape, its layout held from step to
    step, and its buffers, sized to march every row whole; with a Helmholtz
    solver and epsilon, the RK4 rate on it."""

    def __init__(self, grid: Grid, shape: Tuple[int, ...], margin: int, tol: float,
                 solver: Optional[_HelmholtzSolver] = None, epsilon=0.0):
        self.grid, self.margin, self.tol, self.solver = grid, margin, tol, solver
        size = math.prod(shape[:-1]) * (grid.n + 4)
        # Rows (-1 - eta) u, eta, u of the block, and the rates of the RK4
        # stages, stage j's eta_t, u_t and scratch in rows 2j to 2j + 2.
        self.pad, self.k = np.empty((3, size)), np.empty((7, size))
        # The block's LDL^T factor, d and e: an arc's cells take the head of
        # the Dirichlet factor, a whole row's the grid's, a ghost cell's 1, 0.
        self.ldl = np.empty((2, size))
        # Mirror sign of eta and u at reflective walls: eta is even, u odd.
        self.parity = np.array([1.0, -1.0]).reshape(2, 1, 1)
        self.epsilon = np.broadcast_to(np.reshape(epsilon, -1), size // (grid.n + 4))
        # The (row, lo, hi) segments, hi - lo = n - 1 for a whole row, and
        # the state whose layout they are, as the last load copied it.
        self.segments, self.last = [], None

    def load(self, state: FieldPair) -> np.ndarray:
        """Gather the state's segments into the block and return y, a
        C-ordered (2, ..., n) copy of it for store to write into.  The rows
        rescanned are those whose guard bands, the margin + 1 faces inside
        each arc's ends, jump by over tol if state is the last call's y,
        else all; step hands y back read-only, so it holds its values."""
        n = self.grid.n
        y = np.array((state.eta, state.u))
        if self.last is not None and state.eta.base is self.last and state.u.base is self.last:
            # eta and u at the two cells of each band face, (2, 2, faces).
            ends = y.take(self.band)
            jump = np.abs(np.subtract(ends[:, 1], ends[:, 0], out=ends[:, 1]), out=ends[:, 1])
            hot = np.maximum(*jump) > self.tol if jump.size and jump.max() > self.tol else []
            rows = sorted({i // n for i in self.band[0, 1, hot].tolist()}) if len(hot) else []
        else:
            rows = list(range(self.epsilon.size))
        self.last = y
        if rows:
            self.lay_out(y.reshape(2, -1, n), rows)
        for start, at, length in self.gather:
            self.p[1:, at : at + length] = y.reshape(2, -1)[:, start : start + length]
        self.y = self.p[1:, 2:-2]
        self.u = self.y[1]
        return y

    def lay_out(self, y: np.ndarray, rows: List[int]) -> None:
        """Rescan the rows of y, a (2, rows, n) state, and lay the block out anew."""
        n, margin = self.grid.n, self.margin
        # The scan's scratch is the workspace, free until the gather.
        _, found = _arcs(y[:, rows], self.grid, self.parity, margin + _SLACK,
                         self.pad[1:, : len(rows) * (n + 2)].reshape(2, -1, n + 2),
                         self.k[:2, : len(rows) * (n + 1)].reshape(2, -1, n + 1), self.tol)
        # Whole rows first, so that their ghost cells fill in one pass.
        self.segments = segments = sorted(
            [s for s in self.segments if s[0] not in rows] + [(rows[s[0]], *s[1:]) for s in found],
            key=lambda s: (s[2] - s[1] < n - 1, s[0]))
        at, d, e, band = 0, *self.ldl, [np.empty((2, 0), dtype=int)]
        self.gather, self.scatter, self.runs, ghosts = [], [], {}, []
        for r, lo, hi in segments:
            # Cells lo - g to hi + g in at + 2 - g on, g = 0 for a whole
            # row, whose ghost cells wrap fills; lo to hi back from at.
            # Runs of at most n + 1 cells wrap once, in a second run.
            m, g = hi - lo + 1, 2 * (hi - lo < n - 1)
            for first, count, pos, runs in (
                (lo - g, m + 2 * g, at + 2 - g, self.gather), (lo, m, at, self.scatter)
            ):
                first, head = first % n, min(count, n - first % n)
                runs += [(r * n + first, pos, head)]
                runs += [(r * n, pos + head, count - head)] * (count > head)
            if g:  # face f lies between cells f - 1 and f
                faces = np.r_[lo : lo + margin + 1, hi + 1 - margin : hi + 2]
                band.append(r * n + np.array(((faces - 1) % n, faces % n)))
            if self.solver:
                factor = self.solver.dirichlet if g else self.solver.factor
                d[at : at + m], e[at : at + m - 1] = factor[0][:m], factor[1][: m - 1]
                d[at + m : at + m + 4], e[at + m - 1 : at + m + 4] = 1.0, 0.0
            # epsilon scales one run per row, ghost cells between its arcs included.
            self.runs.setdefault(r, [at, 0])[1] = at + m
            ghosts += [at - 2, at - 1, at + m, at + m + 1]
            at += m + 4
        self.p, self.ghosts = self.pad[:, :at], np.array(ghosts[2:-2], dtype=int)
        self.whole = (n + 4) * sum(hi - lo == n - 1 for _, lo, hi in segments)
        self.factor = (d[: at - 4], e[: at - 5]) if segments else None
        # Flat indices into y of the band faces' cells, (eta or u, left or right, face).
        self.band = np.concatenate(band, axis=1) + np.array([0, y[0].size]).reshape(2, 1, 1)

    def wrap(self) -> None:
        """Fill the ghost cells of the whole rows from their block cells."""
        if self.whole:
            p = self.p[1:, : self.whole].reshape(2, -1, self.grid.n + 4)
            _fill_ghosts(p, self.grid, self.parity)

    def store(self, yb: np.ndarray, y: np.ndarray) -> None:
        """Write yb, shaped as the block without its end cells, into the
        segments' cells of y, a C-ordered (2, ..., n) state."""
        for start, at, length in self.scatter:
            y.reshape(2, -1)[:, start : start + length] = yb[:, at : at + length]

    def rate(self, k: np.ndarray) -> None:
        """Rates of the stage input in self.y into k[0] (eta_t) and k[1]
        (u_t), u_t = (I - delta D2)^-1 (epsilon D2 u - D1 eta - u D1 u); both
        are 0 at ghost cells, which so keep their values."""
        grid, p = self.grid, self.p
        self.wrap()
        np.subtract(-1.0, p[1], out=p[0])
        p[0] *= p[2]
        _d1(p, grid.dx, out=k)
        # The forcing D1 eta + u D1 u, built in place in k[1].
        forcing = k[1]
        k[2] *= self.u
        forcing += k[2]
        # Second difference of u into the spent rows: k[2] and the flux.
        d2 = _d2(p[2], grid.dx, out=k[2], scratch=p[0, 2:-2])
        for r, (start, stop) in self.runs.items():
            d2[start:stop] *= self.epsilon[r]
        np.subtract(d2, forcing, out=forcing)
        # +0.0 at every ghost cell, so each term the solve's sweeps carry
        # across a junction of the block is +-0 * 0 and moves no value.
        k[:2, self.ghosts] = 0.0
        if self.factor:
            self.solver.solve(forcing, self.factor)
        for at in range(0, self.whole, grid.n + 4):
            self.solver.correct(forcing[at : at + grid.n], k[2, at : at + grid.n])


# The one workspace of the run in progress: its _Stage, keyed by grid,
# batch shape, delta, epsilon (a float or a tuple) and whether it is the
# Rusanov reference's, so no run reuses another's factorization, epsilon
# or layout; _REST_TOL is read as it is made.  Every step reuses its
# buffers, so it assumes one thread: dpttrs runs on the caller's.  Only
# step fills it and _march releases it when the march ends: MAX_RUN_BYTES
# then bounds the process as well as the run, and none outlives a run.
@lru_cache(maxsize=1)
def _stage(grid: Grid, shape: Tuple[int, ...], delta: float, epsilon, reference=False) -> _Stage:
    if reference:  # a Rusanov step moves only the two cells of a face that jumps at all
        return _Stage(grid, shape, 1, 0.0)
    solver = _HelmholtzSolver(delta, grid)
    return _Stage(grid, shape, _margin(delta, grid), _REST_TOL, solver, epsilon)


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
    # A margin of n marches every row whole but those at rest, whose rates are 0.
    stage = _Stage(grid, eta.shape, grid.n, _REST_TOL, _HelmholtzSolver(delta, grid), epsilon)
    rates = np.zeros((2,) + eta.shape)
    stage.load(FieldPair(eta, u))
    stage.rate(k := stage.k[:3, : stage.y.shape[-1]])
    stage.store(k[:2], rates)
    return rates[0], rates[1]


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
    """Refuse a run whose RK4 workspace and snapshots, the eta and u of
    each, would hold more than MAX_RUN_BYTES."""
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

def _rk4_step(state: FieldPair, config: RunConfig) -> np.ndarray:
    """The (2, ...) block (eta, u) one RK4 step after state, in a fresh
    array; cells outside the block that _Stage lays out keep their values."""
    dt = config.dt
    stage = _stage(config.grid, state.eta.shape, config.delta, config.epsilon)
    y = stage.load(state)
    yb = stage.y.copy()
    # Stage j's rates are rows 2j to 2j + 2 of the block, so its scratch row
    # is the next stage's first, which that stage has not yet written.
    k1, k2, k3 = (stage.k[j : j + 3, : yb.shape[-1]] for j in (0, 2, 4))
    stage.rate(k1)
    for k, prev, h in ((k2, k1, 0.5 * dt), (k3, k2, 0.5 * dt), (k3, k3, dt)):
        # Stage input yb + h * prev, written straight into the buffer.
        np.multiply(prev[:2], h, out=stage.y)
        stage.y += yb
        if k is prev:
            # k3 is spent once it is in the stage input and in k2 + k3, so
            # k4 takes its rows.
            k2[:2] += k3[:2]
        stage.rate(k)
    # Sum ((k2 + k3) 2 + k1) + k4 into k2 in place, add it to yb and store
    # it in y, the stacked copy of the state: the result aliases no buffer.
    k1, k2, k4 = k1[:2], k2[:2], k3[:2]
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= dt / 6.0
    yb += k2
    stage.store(yb, y)
    return y


def _rusanov_step(state: FieldPair, config: RunConfig) -> np.ndarray:
    """The (2, ...) block (eta, u) one Rusanov step after state, in a fresh
    array.  A cell that both neighbours equal takes a flux difference of
    +0.0 and keeps its value bit for bit: only _Stage's block moves."""
    grid, dt = config.grid, config.dt
    stage = _stage(grid, state.eta.shape, 0.0, 0.0, True)
    y = stage.load(state)
    stage.wrap()
    # q holds (eta, u) over the block and one ghost cell at each end, whole
    # rows' wrapped or mirrored.  Face j + 1/2 lies between q[:, j] and q[:, j + 1].
    q = stage.p[1:, 1:-1]
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
    d = np.subtract(flux[:, 1:], flux[:, :-1], out=jump[:, :-1])
    d *= dt / grid.dx
    stage.store(np.subtract(q[:, 1:-1], d, out=d), y)
    return y


def _checked(y: np.ndarray, t: float, config: RunConfig) -> FieldPair:
    """The state (eta, u) = y, a (2, ...) block, at t, made read-only once
    checked finite, then 1 + eta > 0, then dt within cfl_bound."""
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
    y.flags.writeable = False
    return FieldPair(y[0], y[1], t)


def step(state: FieldPair, config: RunConfig) -> FieldPair:
    """Advance one dt to a read-only state; NumericsError unless it passes _checked."""
    t = state.t + config.dt
    if config.system is SystemKind.SHALLOW_WATER:
        return _checked(_rusanov_step(state, config), t, config)
    return _checked(_rk4_step(state, config), t, config)


def _march(
    config: RunConfig, initial: Optional[FieldPair]
) -> Iterator[Tuple[List[int], FieldPair]]:
    """Step from the initial state to t_end, yielding (positions, state) at
    each step that requested times map to.

    The requested times are config.snapshot_times, or (t_end,) if there are
    none, and positions indexes them.  Each is mapped to the nearest whole
    step.  Each yielded state is read-only (at t = 0 the checked copy of the
    initial state) and dropped at the next step: a caller that keeps one
    keeps its memory.  When the march ends, finished, failed or closed, it
    releases the cached RK4 workspace, Helmholtz factorization included.
    """
    n = config.grid.n
    shape = (len(config.epsilon), n) if isinstance(config.epsilon, tuple) else (n,)
    if initial is not None and initial.eta.shape != shape:
        raise ValueError(f"initial state has shape {initial.eta.shape}, the run {shape}")
    init = make_initial(config.ic, config.grid) if initial is None else initial
    fields = [np.broadcast_to(f, shape) for f in (init.eta, init.u)]
    n_total = int(round(config.t_end / config.dt))
    wanted: Dict[int, List[int]] = {}
    for pos, ts in enumerate(config.snapshot_times or (config.t_end,)):
        wanted.setdefault(min(max(int(round(ts / config.dt)), 0), n_total), []).append(pos)
    try:
        state = _checked(np.stack(fields), 0.0, config)
        if 0 in wanted:
            yield wanted[0], state
        for k in range(1, n_total + 1):
            state = step(state, config)
            if k in wanted:
                yield wanted[k], state
    finally:
        # The run's workspace goes with it, so no run shares the process
        # with another's: a reference run after an RK4 run holds none, nor
        # does a process between runs.
        _stage.cache_clear()


def evolve(config: RunConfig, initial: Optional[FieldPair] = None) -> List[FieldPair]:
    """Run to t_end, keeping as snapshots the read-only states the march
    yields at the requested times, uncopied: times mapped to one step share one.

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
            snapshots[pos] = state
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
        del state, reference  # folded into norms, so the march's next steps need not hold it

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

    The cubic Hermite interpolant of the samples and their exact slopes,
    u' = v/(delta c) and eta' = c u'/(c - u)**2, held at its end values
    outside the sampled span (the two constant tails).  On periodic grids
    the upstream plateau must be ramped back to zero far from the front:
    blend_center multiplies both fields by (1 + tanh((x - blend_center)/blend_width))/2.
    """
    if not blend_width > 0.0:
        raise ValueError(f"blend_width must be positive, got {blend_width}")
    c, x = profile.params.c, grid.x
    du = vector_field(profile.u, profile.v, profile.params)[0]
    eta = hermite_interpolate(profile.xi, profile.eta, c * du / (c - profile.u) ** 2, x)
    u = hermite_interpolate(profile.xi, profile.u, du, x)
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

    The reference fields are translated by shift through the cubic Hermite
    interpolant of their samples and first_difference's slopes, so a pure
    traveling wave scores near zero when shift = c*t.  window restricts
    the comparison to [lo, hi] in x and must hold a grid point.
    """
    x = grid.x
    mask = np.ones(grid.n, dtype=bool)
    if window is not None:
        mask = (x >= window[0]) & (x <= window[1])
        if not np.any(mask):
            raise ValueError(f"window {window} holds no grid point of [{x[0]}, {x[-1]}]")
    xs = x[mask] - shift
    total = 0.0
    for ref, new, parity in ((reference.eta, evolved.eta, 1), (reference.u, evolved.u, -1)):
        d = new[mask] - hermite_interpolate(x, ref, first_difference(ref, grid, parity), xs)
        total += float(np.dot(d, d))
    return math.sqrt(grid.dx * total)


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

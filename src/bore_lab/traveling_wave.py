"""Computation and diagnosis of bore profiles of the dissipative system.

The profile system (see waveform)

    u' = v / (delta c)
    v' = c u + u / (u - c) - u**2 / 2 + epsilon v / (delta c)

connects the upstream equilibrium (u_tail, 0) at xi -> -inf to the rest
state (0, 0) at xi -> +inf.  The rest state is a saddle, so the orbit is
computed by seeding a point on its stable manifold a small offset away
from the origin and integrating backward in xi until the upstream
equilibrium is resolved.  Backward integration is the numerically benign
direction: transverse errors contract instead of exploding.

The profile ends at the seed.  Downstream of it the orbit is the linear
stable-manifold flow u = offset * exp(lambda_minus xi), which falls below
the solver's atol within a few decay lengths; ending a connecting orbit on
the linearized stable manifold is the standard truncation (Beyn, IMA J.
Numer. Anal. 10, 1990).

The sweep runs scipy's LSODA (Adams/BDF with automatic stiffness
switching, Petzold 1983) with the analytic Jacobian, one step at a time,
so rtol/atol alone set the steps.  The exported samples lie on a uniform
grid in xi, evaluated from the dense output of the step that covers each
grid point.  The grid spacing is tied to the slow linear rates, |lambda_minus|
and the upstream rate, not to the fast node eigenvalue of a regularized
tail: that one grows like 1/delta, and the backward orbit has no structure
on its scale.  The grid supports trapezoid quadrature of the dissipation
integral to the documented 1e-3 and robust bracketing of extrema.

The field gives the exact slope of every sampled quantity, so extrema,
inflections and the front crossing are roots of piecewise cubic Hermite
interpolants (Hairer, Norsett & Wanner, Solving ODEs I, II.6) of the
stored samples: fourth order in the spacing, and shape_report needs no
solver, only a Profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from .csvio import write_csv
from .errors import IntegrationError, NumericsError
from .waveform import (
    ComplexConjugate,
    RealPair,
    RegimeKind,
    WaveParams,
    classify_regime,
    dissipated_energy,
    equilibria,
    lyapunov_value,
    saddle_eigenvalues,
    solitary_amplitude,
    surface_elevation,
    tail_eigenvalues,
)

# Sample spacing = _STEP_FRACTION / (slow linear rate, see _slow_rate);
# keeps the trapezoid dissipation error below 1e-3 and gives at least
# 2 pi / _STEP_FRACTION ~ 157 samples per oscillation period.
_STEP_FRACTION = 0.04
_CORE_FACTOR = 10.0  # extrema/inflection counting ignores the last decades of tail
_FIT_CEILING = 1e-3  # tail fits use samples within this fraction of the jump


@dataclass(frozen=True)
class PhasePoint:
    xi: float
    u: float
    v: float


@dataclass(frozen=True)
class ProfileOptions:
    """Knobs for integrate_profile; defaults reproduce the shipped figures.

    seed_offset: distance |u| of the stable-manifold seed from the origin;
    None picks 1e-8 * u_tail.  tail_tol is the upstream stopping tolerance,
    max_span (the sweep's only bound) aborts runaway sweeps, rtol/atol go
    to the solver.  All four must be positive and finite.
    """

    seed_offset: Optional[float] = None
    rtol: float = 1e-10
    atol: float = 1e-12
    max_span: float = 2000.0
    tail_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ValueError(
                f"tolerances must be positive and finite, got rtol = {self.rtol}, atol = {self.atol}"
            )
        for name in ("tail_tol", "max_span"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class SolverRecord:
    """What the profile sweep did; written as the solver block of shape.json.

    steps, rhs_evals and jac_evals are those of the sweep.  stop names the
    rule that ended it: "tail_tol" (monotone) or "shrinking_peaks"
    (oscillatory).
    """

    method: str
    steps: int
    rhs_evals: int
    jac_evals: int
    samples: int
    xi_span: Tuple[float, float]
    seed_offset: float
    stop: str


@dataclass
class Profile:
    """Sampled heteroclinic orbit, xi ascending, front crossing at xi = 0.

    u ends at the manifold seed (u = seed_offset) on the right and
    approaches u_tail on the left; eta is the reconstructed surface
    elevation u / (c - u).  seed_offset records the offset actually used;
    solver records what the sweep did (None for a profile assembled from
    stored samples).
    """

    params: WaveParams
    xi: np.ndarray
    u: np.ndarray
    v: np.ndarray
    eta: np.ndarray
    seed_offset: float
    options: ProfileOptions = field(default_factory=ProfileOptions)
    solver: Optional[SolverRecord] = None


@dataclass(frozen=True)
class ShapeReport:
    """Qualitative anatomy of a profile.

    maxima/minima are refined interior extrema as (xi, u) pairs, ordered by
    xi.  inflections are the xi locations of curvature sign changes of u.
    tail_decay_rate_plus is the fitted exponential rate of u as
    xi -> +inf (negative, approximately the stable saddle eigenvalue);
    tail_decay_rate_minus the fitted rate of |u - u_tail| (or of its
    oscillation envelope) as xi -> -inf (positive).  tail_frequency is the
    fitted oscillation frequency upstream; it is None for monotone
    profiles, and both upstream fits are None for oscillatory profiles so
    close to the damping threshold that too few peaks are resolved.
    """

    regime_observed: str
    maxima: List[Tuple[float, float]]
    minima: List[Tuple[float, float]]
    inflections: List[float]
    tail_decay_rate_plus: float
    tail_decay_rate_minus: Optional[float]
    tail_frequency: Optional[float]


@dataclass(frozen=True)
class BoundsCheck:
    """Result of a pointwise containment check along a profile."""

    passed: bool
    worst: float  # most negative margin observed (>= -slack when passed)
    slack: float


def vector_field(u, v, params: WaveParams):
    """Right-hand side (u', v') of the profile system; vectorized."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    dc = params.delta * params.c
    du = v / dc
    dv = params.c * u + u / (u - params.c) - 0.5 * u * u + params.epsilon * v / dc
    return du, dv


def _jacobian(y, params):
    u = y[0]
    dc = params.delta * params.c
    d = u - params.c
    return np.array(
        [
            [0.0, 1.0 / dc],
            [params.c - params.c / (d * d) - u, params.epsilon / dc],
        ]
    )


def manifold_seed(params: WaveParams, offset: float) -> PhasePoint:
    """Point on the stable manifold of the origin, a distance offset in u.

    The manifold is tangent to the eigenvector (1, delta c lambda_minus),
    so the seed is (offset, delta c lambda_minus offset): fourth quadrant,
    u > 0 > v.  offset must satisfy 0 < offset < 0.01 u_tail for the
    linearization to be trustworthy.
    """
    u_tail = equilibria(params).u_tail
    if not (0.0 < offset < 0.01 * u_tail):
        raise ValueError(
            f"seed offset must lie in (0, {0.01 * u_tail:.3e}), got {offset}"
        )
    lam_minus, _ = saddle_eigenvalues(params)
    return PhasePoint(xi=0.0, u=offset, v=params.delta * params.c * lam_minus * offset)


def _slow_rate(params: WaveParams) -> float:
    """Slowest structural rate of the orbit.

    The larger of |lambda_minus| (the downstream decay) and the upstream
    rate: the slow node eigenvalue of a real tail pair, the modulus of a
    complex one.  The fast node eigenvalue grows like 1/delta but sets no
    scale of the backward orbit, so it is left out.
    """
    spec = tail_eigenvalues(params)
    if isinstance(spec.tail, ComplexConjugate):
        tail_rate = math.hypot(spec.tail.real, spec.tail.imag)
    else:
        tail_rate = spec.tail.minus
    return max(abs(spec.lambda_minus), tail_rate)


class _GridSweep:
    """LSODA on the reversed field in tau = -xi, sampled at tau = k * spacing.

    Iterating yields (tau, y) for k = 1, 2, ... in order, evaluated from
    the dense output of the step that covers tau, until the solver reaches
    t_end.  steps counts the accepted steps taken so far.
    """

    def __init__(self, params, y0, t_end, spacing, opts: ProfileOptions):
        # Imported here so that commands without a profile never load
        # scipy.integrate (~2.5 MiB of resident memory).
        from scipy.integrate import LSODA

        def fun(t, y):
            return -np.stack(vector_field(y[0], y[1], params))

        def jac(t, y):
            return -_jacobian(y, params)

        self.solver = LSODA(fun, 0.0, y0, t_end, rtol=opts.rtol, atol=opts.atol, jac=jac)
        self.spacing = spacing
        self.steps = 0

    def __iter__(self):
        solver, spacing = self.solver, self.spacing
        k = 1
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise IntegrationError(f"LSODA broke down at tau = {solver.t:.6g}: {message}")
            self.steps += 1
            last = int(math.floor(solver.t / spacing))
            if last < k:
                continue
            taus = spacing * np.arange(k, last + 1)
            ys = solver.dense_output()(taus)
            k = last + 1
            yield from zip(taus.tolist(), ys.T)


def integrate_profile(params: WaveParams, options: Optional[ProfileOptions] = None) -> Profile:
    """Compute the bore profile for params; see the module docstring.

    Raises ValueError for epsilon = 0 (the dissipationless system has no
    bore-type traveling wave: the orbit through the seed is homoclinic and
    never settles on the upstream state) and IntegrationError when the
    sweep exhausts max_span, the solver breaks down, or the orbit strays
    next to the singular line u = c.
    """
    if params.epsilon <= 0.0:
        raise ValueError(
            "bore profiles need epsilon > 0; the dissipationless system has "
            "no traveling wave of bore type"
        )
    opts = options or ProfileOptions()
    eq = equilibria(params)
    u0 = eq.u_tail
    offset = opts.seed_offset if opts.seed_offset is not None else 1e-8 * u0
    seed = manifold_seed(params, offset)
    regime = classify_regime(params)
    spacing = _STEP_FRACTION / _slow_rate(params)
    y_seed = np.array([seed.u, seed.v])

    sweep = _GridSweep(params, y_seed, opts.max_span, spacing, opts)
    taus = [0.0]
    ys = [y_seed]
    dev_peaks: List[float] = []
    oscillatory = regime.kind is RegimeKind.OSCILLATORY
    stop = None
    for tau, y in sweep:
        taus.append(tau)
        ys.append(y)
        u_new, v_new = y
        if u_new > params.c - 1e-9 * params.c:
            raise IntegrationError(
                f"orbit approached the singular line u = c at xi = {-tau}"
            )
        dev_new = abs(u_new - u0)
        if not oscillatory:
            if dev_new + abs(v_new) < opts.tail_tol:
                stop = "tail_tol"
                break
        elif len(ys) >= 3:
            d2 = abs(ys[-2][0] - u0)
            d3 = abs(ys[-3][0] - u0)
            if d2 >= dev_new and d2 > d3:
                dev_peaks.append(d2)
                if (
                    len(dev_peaks) >= 3
                    and dev_peaks[-1] < opts.tail_tol
                    and dev_peaks[-3] > dev_peaks[-2] > dev_peaks[-1]
                ):
                    stop = "shrinking_peaks"
                    break
    if stop is None:
        raise IntegrationError(
            f"upstream state not reached within max_span = {opts.max_span}; "
            f"|u - u_tail| = {abs(ys[-1][0] - u0):.3e} at xi = {-taus[-1]:.1f}"
        )

    xi = -np.array(taus[::-1])
    u_arr, v_arr = np.array(ys[::-1]).T

    # Normalize: xi = 0 at the rightmost crossing of u = u_tail / 2.
    du, _ = vector_field(u_arr, v_arr, params)
    crossings, _ = _zeros(xi, u_arr - 0.5 * u0, du, np.ones(xi.size, dtype=bool))
    if crossings.size == 0:
        raise IntegrationError("profile never crosses half the upstream velocity")
    xi = xi - crossings[-1]

    eta = surface_elevation(u_arr, params.c)
    record = SolverRecord(
        method="LSODA",
        steps=sweep.steps,
        rhs_evals=sweep.solver.nfev,
        jac_evals=int(sweep.solver.njev),
        samples=int(xi.size),
        xi_span=(float(xi[0]), float(xi[-1])),
        seed_offset=offset,
        stop=stop,
    )
    return Profile(
        params=params,
        xi=xi,
        u=u_arr,
        v=v_arr,
        eta=np.asarray(eta, dtype=float),
        seed_offset=offset,
        options=opts,
        solver=record,
    )


def _zeros(x, y, dy, mask):
    """(zeros, i): sign changes of y between samples x, dy the exact slope.

    A bracket is an interval whose two samples lie in mask and whose y
    values differ strictly in sign; i holds its left sample.  Its zero is
    the root of the cubic Hermite interpolant of (y, dy) on the bracket.
    """
    i = np.flatnonzero(mask[:-1] & mask[1:] & (y[:-1] * y[1:] < 0.0))
    h = x[i + 1] - x[i]
    cubics = CubicHermiteSpline(
        [0.0, 1.0], np.stack([y[i], y[i + 1]]), np.stack([h * dy[i], h * dy[i + 1]])
    )
    roots = cubics.roots(extrapolate=False)
    for k, r in enumerate(roots):
        if r.size == 0:
            raise NumericsError(f"no zero of the interpolant on [{x[i[k]]}, {x[i[k] + 1]}]")
    t = np.array([r[0] for r in roots])
    return x[i] + h * t, i


def _core_mask(profile: Profile) -> np.ndarray:
    """Samples far enough from both tails to count features reliably."""
    u0 = equilibria(profile.params).u_tail
    cut = _CORE_FACTOR * profile.options.tail_tol
    dev_left = np.abs(profile.u - u0) + np.abs(profile.v)
    dev_right = np.abs(profile.u) + np.abs(profile.v)
    return (dev_left > cut) & (dev_right > cut)


def shape_report(profile: Profile) -> ShapeReport:
    """Extrema, inflections, tail rates, and frequency of a profile.

    Feature counting is restricted to the core region (deviations above
    10 * tail_tol) so that roundoff wiggles in the resolved tails are not
    reported as structure.
    """
    params = profile.params
    u0 = equilibria(params).u_tail
    mask = _core_mask(profile)
    xi, u, v = profile.xi, profile.u, profile.v

    du, dv = vector_field(u, v, params)
    locs, i = _zeros(xi, v, dv, mask)
    vals = CubicHermiteSpline(xi, u, du)(locs)
    crest = v[i] > 0.0  # v goes + -> -: u has a maximum
    maxima = list(zip(locs[crest].tolist(), vals[crest].tolist()))
    minima = list(zip(locs[~crest].tolist(), vals[~crest].tolist()))

    # v'' is the second row of _jacobian applied to (u', v').
    c, dc = params.c, params.delta * params.c
    d2v = (c - c / (u - c) ** 2 - u) * du + params.epsilon / dc * dv
    inflections = _zeros(xi, dv, d2v, mask)[0].tolist()

    rate_plus = _fit_right_tail(profile, u0)
    oscillatory = len(maxima) + len(minima) > 0
    if oscillatory:
        rate_minus, freq = _fit_oscillatory_tail(profile, u0, maxima, minima)
    else:
        rate_minus = _fit_monotone_tail(profile, u0)
        freq = None

    return ShapeReport(
        regime_observed="oscillatory" if oscillatory else "monotone",
        maxima=maxima,
        minima=minima,
        inflections=inflections,
        tail_decay_rate_plus=rate_plus,
        tail_decay_rate_minus=rate_minus,
        tail_frequency=freq,
    )


def _fit_right_tail(profile: Profile, u0: float) -> float:
    sel = (profile.u > 0.0) & (profile.u < _FIT_CEILING * u0) & (profile.xi > 0.0)
    if np.count_nonzero(sel) < 4:
        sel = (profile.u > 0.0) & (profile.u < 10.0 * _FIT_CEILING * u0) & (profile.xi > 0.0)
    if np.count_nonzero(sel) < 4:
        raise NumericsError("fewer than 4 samples in the downstream tail")
    return float(np.polyfit(profile.xi[sel], np.log(profile.u[sel]), 1)[0])


def _fit_monotone_tail(profile: Profile, u0: float) -> float:
    dev = np.abs(profile.u - u0)
    sel = (dev > 0.0) & (dev < _FIT_CEILING * u0) & (profile.xi < 0.0)
    if np.count_nonzero(sel) < 4:
        raise NumericsError("fewer than 4 samples in the upstream tail")
    return float(np.polyfit(profile.xi[sel], np.log(dev[sel]), 1)[0])


def _fit_oscillatory_tail(profile, u0, maxima, minima):
    """Envelope decay rate and crest frequency; either may be None when the
    spiral is so heavily damped that too few peaks rise above the noise."""
    peaks = sorted(maxima + minima)
    amps = np.array([abs(val - u0) for _, val in peaks])
    locs = np.array([loc for loc, _ in peaks])
    tail_tol = profile.options.tail_tol
    for ceiling in (0.05, 0.2, np.inf):
        band = (amps > 3.0 * tail_tol) & (amps < ceiling * u0)
        if np.count_nonzero(band) >= 4:
            break
    rate = None
    if np.count_nonzero(band) >= 2:
        rate = float(np.polyfit(locs[band], np.log(amps[band]), 1)[0])

    max_locs = np.array([loc for loc, val in sorted(maxima)])
    sel = np.array(
        [abs(val - u0) > 3.0 * tail_tol for loc, val in sorted(maxima)], dtype=bool
    )
    usable = max_locs[sel]
    if usable.size < 3:
        usable = max_locs
    freq = None
    if usable.size >= 2:
        freq = float(2.0 * math.pi / np.mean(np.diff(usable)))
    return rate, freq


def energy_identity_residual(profile: Profile) -> float:
    """Relative mismatch of epsilon * integral(u'**2) vs the closed form.

    Trapezoid quadrature over the profile samples; documented to stay
    below 1e-3 for tail_tol <= 1e-8 at the shipped sampling density.
    """
    params = profile.params
    du = profile.v / (params.delta * params.c)
    lhs = params.epsilon * float(np.trapezoid(du * du, profile.xi))
    rhs = dissipated_energy(params.c)
    return abs(lhs - rhs) / rhs


def check_triangle_confinement(profile: Profile) -> BoundsCheck:
    """Verify the orbit stays in the invariant triangle of monotone bores.

    The triangle is bounded by v = 0 above, u = 0 on the left, and the
    line v = slope (u - u_tail) below, slope = delta c Lambda_minus.  Only
    meaningful in the regularized regime; oscillatory parameters raise
    ValueError.  The slack absorbs integration error (10x tolerance).
    """
    params = profile.params
    regime = classify_regime(params)
    if regime.kind is not RegimeKind.REGULARIZED:
        raise ValueError("triangle confinement applies to regularized profiles only")
    spec = tail_eigenvalues(params)
    assert isinstance(spec.tail, RealPair)
    slope = spec.triangle_slope
    u0 = equilibria(params).u_tail
    v_scale = float(np.max(np.abs(profile.v))) if profile.v.size else 1.0
    slack = 10.0 * (profile.options.atol + profile.options.rtol * max(u0, v_scale))
    margins = np.minimum.reduce(
        [
            -profile.v,  # v <= 0
            profile.u,  # u >= 0
            u0 - profile.u,  # u <= u_tail
            profile.v - slope * (profile.u - u0),  # above the lower edge
        ]
    )
    worst = float(np.min(margins))
    return BoundsCheck(passed=worst >= -slack, worst=worst, slack=slack)


def check_derivative_bounds(profile: Profile) -> BoundsCheck:
    """Verify the a priori two-sided bounds on v = delta c u'.

    Lower bound -(delta c / epsilon)(2 - 3 c**(2/3) + c**2) (the global
    maximum of the conservative force times delta c / epsilon); upper bound
    (delta c / epsilon)(c / (c - u_bar) + c**2 / 2).  Requires epsilon > 0.
    """
    params = profile.params
    if params.epsilon <= 0.0:
        raise ValueError("derivative bounds require epsilon > 0")
    c = params.c
    dc_over_eps = params.delta * c / params.epsilon
    lower = -dc_over_eps * (2.0 - 3.0 * c ** (2.0 / 3.0) + c * c)
    u_bar = solitary_amplitude(c)
    upper = dc_over_eps * (c / (c - u_bar) + 0.5 * c * c)
    v_scale = float(np.max(np.abs(profile.v))) if profile.v.size else 1.0
    slack = 10.0 * (profile.options.atol + profile.options.rtol * v_scale)
    worst = float(min(np.min(profile.v - lower), np.min(upper - profile.v)))
    return BoundsCheck(passed=worst >= -slack, worst=worst, slack=slack)


def lyapunov_backstep(profile: Profile) -> float:
    """Largest decrease of the Lyapunov value between consecutive samples.

    Along an exact orbit V = v**2/2 + G(u) is nondecreasing in xi, so the
    return value is pure integration noise; zero when monotonicity holds
    exactly at sample resolution.
    """
    vals = lyapunov_value(profile.u, profile.v, profile.params)
    drops = np.diff(vals)
    worst = float(np.min(drops)) if drops.size else 0.0
    return max(0.0, -worst)


def polyline_self_intersections(x: np.ndarray, y: np.ndarray, max_points: int = 1500) -> int:
    """Count transversal self-intersections of a sampled planar curve.

    Decimates to at most max_points vertices, then checks every
    non-adjacent segment pair with a vectorized orientation test.  Used to
    confirm computed orbits are simple curves.
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


def write_profile_csv(profile: Profile, path) -> None:
    """Write samples as CSV with header xi,u,v,eta at full double precision."""
    write_csv(path, "xi,u,v,eta", [profile.xi, profile.u, profile.v, profile.eta])


def load_profile_csv(path) -> dict:
    """Read a profile CSV back into column arrays; schema-checked."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    expected = ("xi", "u", "v", "eta")
    if data.dtype.names != expected:
        raise ValueError(
            f"profile CSV must have columns {','.join(expected)}, got {data.dtype.names}"
        )
    return {name: np.atleast_1d(data[name]) for name in expected}


def shape_report_dict(report: ShapeReport) -> dict:
    """JSON-ready dictionary form of a ShapeReport."""
    return {
        "regime_observed": report.regime_observed,
        "maxima": [[float(a), float(b)] for a, b in report.maxima],
        "minima": [[float(a), float(b)] for a, b in report.minima],
        "inflections": [float(a) for a in report.inflections],
        "tail_decay_rate_plus": float(report.tail_decay_rate_plus),
        "tail_decay_rate_minus": None
        if report.tail_decay_rate_minus is None
        else float(report.tail_decay_rate_minus),
        "tail_frequency": None
        if report.tail_frequency is None
        else float(report.tail_frequency),
    }


def write_shape_report_json(report: ShapeReport, path, solver: Optional[SolverRecord] = None) -> None:
    """Write the report as JSON, with a "solver" block when solver is given."""
    data = shape_report_dict(report)
    if solver is not None:
        data["solver"] = asdict(solver)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")

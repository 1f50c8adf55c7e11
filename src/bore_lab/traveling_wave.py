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

The sweep runs LSODA (Adams/BDF with automatic stiffness switching,
Hindmarsh 1983, Petzold 1983) with the analytic Jacobian, in one call of
scipy's compiled odeint (see _lsoda) over a predicted span: the time the
upstream deviation takes to decay from u_tail to tail_tol at the tail's
rate plus the time the seed takes to grow at |lambda_minus|, with a
margin; a sweep that ends short of its stop reruns over twice the span.
The samples lie on a uniform grid in xi, the call's output times: the
solver steps past each and returns its own interpolant there (ODEPACK's
intdy), in compiled code, so the samples never set the steps.  Its first
step is the one LSODA picks for the whole sweep, and rtol/atol alone set
the rest.
A sweep predicted to take more than MAX_PROFILE_SAMPLES samples, or a
span over _OVERRUN_FACTOR times max_span, is refused before it starts.
The grid spacing is tied to the slow linear rates, |lambda_minus| and
the upstream rate, not to the fast node eigenvalue of a regularized
tail: that one grows like 1/delta, and the backward orbit has no
structure on its scale.  The grid supports quadrature of the
dissipation integral to the documented 1e-3 and robust bracketing of
extrema.

The orbit approaches both equilibria exponentially, so most samples lie
in quiet tails.  profile.csv writes the subset csv_rows picks: every
sample at least _THIN_DISTANCE u_tail from both equilibria, and nearer
to one a stride of up to _MAX_STRIDE samples that grows as the distance
falls; the seed and the stop sample are always written.  The
end-corrected trapezoid of energy_identity_residual reads the same
digits on those rows as on the whole grid.

The field gives the exact slope of every sampled quantity, so extrema,
inflections and the front crossing are roots of piecewise cubic Hermite
interpolants (Hairer, Norsett & Wanner, Solving ODEs I, II.6) of the
stored samples, each found by a safeguarded Newton iteration on its
bracket: fourth order in the spacing, and shape_report needs no solver,
only a Profile.  hermite_interpolate evaluates the same interpolant for
pde.sample_profile_on_grid and pde.shape_misfit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from ._scipy import extension
from .csvio import read_csv, write_csv, write_json
from .errors import IntegrationError, NumericsError
from .waveform import (
    ComplexConjugate,
    RealPair,
    WaveParams,
    dissipated_energy,
    equilibria,
    lyapunov_value,
    restoring_coefficient,
    saddle_eigenvalues,
    solitary_amplitude,
    surface_elevation,
    tail_eigenvalues,
)

# Sample spacing = _STEP_FRACTION / (slow linear rate, see _slow_rate);
# gives at least 2 pi / _STEP_FRACTION ~ 157 samples per oscillation period
# in memory, where shape_report brackets extrema.
_STEP_FRACTION = 0.04
# profile.csv thins the quiet tails (see csv_rows): every sample whose
# distance to the nearer equilibrium is at least _THIN_DISTANCE u_tail is
# written, and the stride between written samples grows like that
# distance to the -1/4, at most to _MAX_STRIDE, which still leaves
# 157 / 8 ~ 19 rows per oscillation period.
_THIN_DISTANCE = 1e-2
_MAX_STRIDE = 8
# The sweep's first span is this multiple of _predicted_span; a sweep that
# ends before its stop reruns over twice the span.
_SPAN_MARGIN = 1.2
# integrate_profile raises at once when the predicted span, before its
# margin, is over this multiple of max_span: the sweep's span lies within
# 0.8 to 1.2 times the prediction, so it would end on max_span anyway.
_OVERRUN_FACTOR = 2.0
# integrate_profile refuses a sweep predicted to take more samples than
# this (292 times fig6-c's 7,173), and no rerun exceeds it: the one solver
# call allocates about 80 bytes per sample.
MAX_PROFILE_SAMPLES = 2**21
_CORE_FACTOR = 10.0  # extrema/inflection counting ignores the last decades of tail
_FIT_CEILING = 1e-3  # tail fits use samples within this fraction of the jump
# LSODA's failure states (istate < 0), worded as scipy's odeint words them.
_LSODA_FAILURES = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}


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

    steps, rhs_evals and jac_evals are the work of every solver call of the
    sweep, which runs past its last sample, rhs_evals with the field
    evaluation that sizes its first step.
    """

    method: str
    steps: int
    rhs_evals: int
    jac_evals: int
    samples: int
    xi_span: Tuple[float, float]
    seed_offset: float


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
    oscillation envelope, _fit_oscillatory_tail) as xi -> -inf (positive).
    Each rate is the least-squares log-slope of its deviations (_log_slope;
    _fit_tail_band picks them in a monotone tail).  tail_frequency is the
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
    """Right-hand side (u', v') of the profile system.

    u and v are floats or arrays of one shape: the solver callback passes
    floats, the shape report arrays, and both get the same operations in
    the same order.
    """
    dc = params.delta * params.c
    du = v / dc
    dv = params.c * u + u / (u - params.c) - 0.5 * u * u + params.epsilon * v / dc
    return du, dv


def _force_slope(u, params: WaveParams):
    """d(v')/du, the lower-left entry of the Jacobian; floats or arrays."""
    d = u - params.c
    return params.c - params.c / (d * d) - u


def _jacobian(u: float, params: WaveParams) -> np.ndarray:
    """Jacobian of vector_field at a state with first component u."""
    dc = params.delta * params.c
    return np.array([[0.0, 1.0 / dc], [_force_slope(u, params), params.epsilon / dc]])


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
    tail = tail_eigenvalues(params)
    if isinstance(tail, ComplexConjugate):
        tail_rate = math.hypot(tail.real, tail.imag)
    else:
        tail_rate = tail.minus
    lam_minus, _ = saddle_eigenvalues(params)
    return max(abs(lam_minus), tail_rate)


def _first_step(f0, y0, t_end: float, opts: ProfileOptions) -> float:
    """Length of LSODA's own first step from t = 0 aimed at |tout| = t_end.

    ODEPACK's lsoda.f: h0**-2 = 1/(tol t_end**2) + tol max|f0 / ewt|**2,
    with tol = rtol clamped to [100 u, 1e-3] and ewt = rtol |y0| + atol,
    the arithmetic in LSODA's order.  f0 is the field at y0.
    """
    tol = min(max(opts.rtol, 100.0 * sys.float_info.epsilon), 1e-3)
    norm = max(abs(f) * (1.0 / (opts.rtol * abs(y) + opts.atol)) for f, y in zip(f0, y0))
    return min(1.0 / math.sqrt(1.0 / (tol * t_end * t_end) + tol * norm**2), t_end)


def _predicted_span(params: WaveParams, offset: float, tail_tol: float) -> float:
    """Span in xi the sweep needs from the seed to its stop, without margin.

    The seed grows from offset to the size of u_tail at the downstream rate
    |lambda_minus|; upstream, the deviation from u_tail falls from its own
    size to tail_tol at sigma, the real part of a spiral's pair or the slow
    node rate of a node (the upstream energy obeys
    dE/dxi = epsilon v**2 / (delta c), see _sweep).
    """
    u_tail = equilibria(params).u_tail
    tail = tail_eigenvalues(params)
    sigma = tail.real if isinstance(tail, ComplexConjugate) else tail.minus
    lam_minus, _ = saddle_eigenvalues(params)
    upstream = math.log(max(u_tail / tail_tol, 1.0)) / sigma
    return upstream + math.log(u_tail / offset) / abs(lam_minus)


def _lsoda():
    """scipy's compiled LSODA driver, odeint of scipy.integrate._odepack,
    loaded from its file without scipy.integrate's package init."""
    return extension("scipy.integrate._odepack").odeint


def _upstream_norm2(u, v, params: WaveParams):
    """(u - u_tail)**2 + v**2 / (delta c R), R the restoring coefficient.

    The norm of the sweep's stop rule, and of csv_rows' distance upstream.
    It is 2E / (delta c R), E = v**2/2 + delta c R (u - u_tail)**2/2 the
    Lyapunov function linearized upstream, and dE/dxi = epsilon v**2 /
    (delta c) >= 0 at a spiral and a node alike.  u and v are arrays.
    """
    dcr = params.delta * params.c * restoring_coefficient(params.c)
    return (u - equilibria(params).u_tail) ** 2 + v * v / dcr


def _sweep(params: WaveParams, seed: PhasePoint, spacing: float, span: float, opts: ProfileOptions):
    """LSODA on the field from seed backward in xi, sampled at xi = -k * spacing.

    Returns (xi, u, v, counts): the samples as arrays in sweep order, seed
    first, and (steps, rhs_evals, jac_evals).  One odeint call runs from the
    seed to xi = -span, with the grid points k * spacing <= span as its
    output times and -span as a last output time that is no sample: in
    compiled code, the solver steps past each output time and returns its
    own interpolant there (ODEPACK's intdy, itask 1).  Its first step is the
    one LSODA would take aimed at -max_span and the last output time is
    -span, so neither the grid nor its spacing steers the steps; the
    per-call step cap is lifted.

    The samples are then read in order.  The first one that is non-finite,
    next to the singular line u = c (raising IntegrationError), or meets
    the stop rule decides: _upstream_norm2 below tail_tol**2.
    When no sample decides, the sweep reruns from the seed over twice the
    span, the same samples first, up to max_span or MAX_PROFILE_SAMPLES
    samples, where it raises IntegrationError.  A failed call fills no
    rows past the failure, so its first failing output time is found by
    bisection over prefixes of the grid, each of which repeats the same
    steps; a sample before it may still decide, else IntegrationError
    names it.

    The counts are ODEPACK's step, field and Jacobian counters at the last
    output time of each call that succeeds, summed, plus the one field
    evaluation that sizes the first step.  The callbacks run on floats:
    LSODA calls them with 2-vectors, where numpy's per-call cost would
    exceed the arithmetic.
    """
    # The compiled driver is loaded here, at first use, never at module
    # level: importing bore_lab or its CLI then loads no scipy module.
    odeint = _lsoda()

    # odeint copies the returned field out at once, so one array serves
    # every call, and f2py takes it without parsing a tuple.
    ydot = np.empty(2)

    def fun(t, y):
        u, v = y.tolist()
        ydot[0], ydot[1] = vector_field(u, v, params)
        return ydot

    def jac(t, y):
        return _jacobian(y.item(0), params)

    y0 = [seed.u, seed.v]
    h0 = -_first_step(fun(0.0, np.array(y0)).tolist(), y0, opts.max_span, opts)
    counts = np.array([0, 1, 0])

    def solve(tout):
        """(y, message) of one call over tout; message is None on success."""
        # The positional arguments of scipy.integrate.odeint's own call: no
        # args, a full Jacobian (col_deriv 0, ml = mu = -1), full output,
        # no tcrit, hmax, hmin or ixpr, no step cap (mxstep), mxhnil 0, the
        # default orders (mxordn 12, mxords 5), and tfirst.
        y, info, istate = odeint(fun, y0, tout, (), jac, 0, -1, -1, 1, opts.rtol, opts.atol,
                                 None, h0, 0.0, 0.0, 0, 2**31 - 1, 0, 12, 5, 1)
        if istate < 0:
            return y, _LSODA_FAILURES[istate]
        counts[:] += [info["nst"][-1], info["nfe"][-1], info["nje"][-1]]
        return y, None

    u0 = equilibria(params).u_tail
    tol2 = opts.tail_tol * opts.tail_tol
    limit = min(opts.max_span, MAX_PROFILE_SAMPLES * spacing)
    while True:
        xi = -np.arange(1, int(math.floor(span / spacing)) + 1) * spacing
        tout = np.concatenate(([0.0], xi, [-span]))
        y, failure = solve(tout)
        if failure is not None:
            good, bad = 0, tout.size - 1  # tout[:good + 1] succeeds, tout[:bad + 1] fails
            while bad - good > 1:
                mid = (good + bad) // 2
                if solve(tout[: mid + 1])[1] is None:
                    good = mid
                else:
                    bad = mid
            y = y[:bad]
        u, v = y[1 : xi.size + 1, 0], y[1 : xi.size + 1, 1]
        non_finite = ~(np.isfinite(u) & np.isfinite(v))
        singular = u > params.c - 1e-9 * params.c
        # A stop norm that overflows to inf is not below tail_tol either.
        with np.errstate(over="ignore"):
            decided = np.flatnonzero(non_finite | singular | (_upstream_norm2(u, v, params) < tol2))
        if decided.size:
            k = int(decided[0])
            if non_finite[k]:
                raise IntegrationError(f"non-finite state at xi = {float(xi[k])}")
            if singular[k]:
                raise IntegrationError(
                    f"orbit approached the singular line u = c at xi = {float(xi[k])}"
                )
            xi = np.concatenate(([0.0], xi[: k + 1]))
            return xi, y[: k + 2, 0], y[: k + 2, 1], counts.tolist()
        if failure is not None:
            raise IntegrationError(f"LSODA failed before xi = {float(tout[bad])}: {failure}")
        if span >= limit:
            within = (f"max_span = {opts.max_span}" if limit == opts.max_span
                      else f"MAX_PROFILE_SAMPLES = {MAX_PROFILE_SAMPLES} samples")
            last = (float(xi[-1]), float(u[-1])) if xi.size else (0.0, seed.u)
            raise IntegrationError(
                f"upstream state not reached within {within}; "
                f"|u - u_tail| = {abs(last[1] - u0):.3e} at xi = {last[0]:.1f}"
            )
        span = min(2.0 * span, limit)


def integrate_profile(params: WaveParams, options: Optional[ProfileOptions] = None) -> Profile:
    """Compute the bore profile for params; see the module docstring.

    Raises ValueError for epsilon = 0 (the dissipationless system has no
    bore-type traveling wave: the orbit through the seed is homoclinic and
    never settles on the upstream state), a tail_tol below the roundoff
    floor 1e-13 max(1, u_tail), or a sweep predicted to take more than
    MAX_PROFILE_SAMPLES samples, and IntegrationError when the sweep is
    predicted to need over _OVERRUN_FACTOR times max_span or exhausts it,
    the solver breaks down, the orbit turns non-finite, or it strays next
    to the singular line u = c.
    """
    if params.epsilon <= 0.0:
        raise ValueError(
            "bore profiles need epsilon > 0; the dissipationless system has "
            "no traveling wave of bore type"
        )
    opts = options or ProfileOptions()
    u0 = equilibria(params).u_tail
    floor = 1e-13 * max(1.0, u0)
    if opts.tail_tol < floor:
        raise ValueError(f"tail_tol must be at least {floor:.3g}: roundoff keeps the sweep "
                         f"from stopping below it; got {opts.tail_tol}")
    offset = opts.seed_offset if opts.seed_offset is not None else 1e-8 * u0
    seed = manifold_seed(params, offset)
    rate = _slow_rate(params)
    spacing = _STEP_FRACTION / rate if rate > 0.0 else math.inf
    if not 0.0 < spacing < math.inf:
        raise IntegrationError(f"the slowest rate {rate:.3g} at delta = {params.delta}, epsilon = "
                               f"{params.epsilon} gives no finite sample spacing")
    predicted = _predicted_span(params, offset, opts.tail_tol)
    span = min(_SPAN_MARGIN * predicted, opts.max_span)
    if span / spacing > MAX_PROFILE_SAMPLES:
        raise ValueError(
            f"the sweep would take about {span / spacing:.3g} samples, above the budget "
            f"MAX_PROFILE_SAMPLES = {MAX_PROFILE_SAMPLES}; raise epsilon or tail_tol, "
            f"or lower max_span"
        )
    if predicted > _OVERRUN_FACTOR * opts.max_span:
        raise IntegrationError(
            f"upstream state not reached within max_span = {opts.max_span}: the sweep "
            f"is predicted to need a span of about {predicted:.3g}"
        )
    xis, us, vs, (steps, rhs_evals, jac_evals) = _sweep(params, seed, spacing, span, opts)

    xi = xis[::-1].copy()
    u_arr = us[::-1].copy()
    v_arr = vs[::-1].copy()

    # Normalize: xi = 0 at the rightmost crossing of u = u_tail / 2.
    du, _ = vector_field(u_arr, v_arr, params)
    crossings, _ = _zeros(xi, u_arr - 0.5 * u0, du, np.ones(xi.size, dtype=bool))
    if crossings.size == 0:
        raise IntegrationError("profile never crosses half the upstream velocity")
    xi = xi - crossings[-1]

    eta = surface_elevation(u_arr, params.c)
    record = SolverRecord(
        method="LSODA",
        steps=steps,
        rhs_evals=rhs_evals,
        jac_evals=jac_evals,
        samples=int(xi.size),
        xi_span=(float(xi[0]), float(xi[-1])),
        seed_offset=offset,
    )
    return Profile(
        params=params,
        xi=xi,
        u=u_arr,
        v=v_arr,
        eta=eta,
        seed_offset=offset,
        options=opts,
        solver=record,
    )


def _hermite_root(y0, y1, d0, d1):
    """Smallest root in [0, 1] of each cubic p with p(0) = y0, p(1) = y1,
    p'(0) = d0 and p'(1) = d1, arrays with y0 y1 < 0.

    p(t) = ((a t + b) t + d0) t + y0.  The zeros of p' split [0, 1] into
    pieces on which p is monotone, and the first piece whose ends differ in
    sign holds the smallest root and no other.  On it, Newton's iteration
    starts at the secant point, y0 / (y0 - y1) on an unsplit bracket, keeps
    the sign bracket of the root, and bisects it whenever a step leaves it;
    it stops when no t moves, within 60 iterations.
    """
    slope = y1 - y0
    a = d0 + d1 - 2.0 * slope
    b = slope - d0 - a
    lo, hi = np.zeros_like(y0), np.ones_like(y0)
    p_lo, p_hi = y0, y1
    with np.errstate(divide="ignore", invalid="ignore"):
        # The zeros of p' = 3 a t**2 + 2 b t + d0, ascending; NaN for none.
        q = -(b + np.copysign(np.sqrt(b * b - 3.0 * a * d0), b))
        for c in np.sort([q / (3.0 * a), d0 / q], axis=0):
            p_c = ((a * c + b) * c + d0) * c + y0
            inside = (lo < c) & (c < hi)
            left = inside & (p_c * y0 > 0.0)
            right = inside & ~left
            lo, p_lo = np.where(left, c, lo), np.where(left, p_c, p_lo)
            hi, p_hi = np.where(right, c, hi), np.where(right, p_c, p_hi)
        t = lo + (hi - lo) * (p_lo / (p_lo - p_hi))
        for _ in range(60):
            p = ((a * t + b) * t + d0) * t + y0
            left = p * y0 > 0.0
            lo, hi = np.where(left, t, lo), np.where(left, hi, t)
            step = t - p / ((3.0 * a * t + 2.0 * b) * t + d0)
            inside = ((lo < step) & (step < hi)) | (step == t)
            step = np.where(inside, step, 0.5 * (lo + hi))
            if np.array_equal(step, t):
                break
            t = step
    return t


def _hermite_value(x, y, dy, i, xq):
    """The cubic Hermite interpolant of (y, dy) on [x[i], x[i + 1]] at xq.

    Monomials in s = xq - x[i] with the coefficients of scipy's
    CubicHermiteSpline, summed in the order its evaluation sums them, so
    the values are its values bit for bit.
    """
    h = x[i + 1] - x[i]
    slope = (y[i + 1] - y[i]) / h
    k = (dy[i] + dy[i + 1] - 2.0 * slope) / h
    s = xq - x[i]
    return y[i] + dy[i] * s + ((slope - dy[i]) / h - k) * (s * s) + k / h * (s * s * s)


def hermite_interpolate(x, y, dy, xq):
    """Piecewise cubic Hermite of (y, dy) on ascending x at xq, held at the ends."""
    xq = np.clip(xq, x[0], x[-1])
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    return _hermite_value(x, y, dy, i, xq)


def _zeros(x, y, dy, mask):
    """(zeros, i): sign changes of y between samples x, dy the exact slope.

    A bracket is an interval whose two samples lie in mask and whose y
    values differ strictly in sign; i holds its left sample.  Its zero is
    the smallest root of the cubic Hermite interpolant of (y, dy) on the
    bracket.
    """
    i = np.flatnonzero(mask[:-1] & mask[1:] & (y[:-1] * y[1:] < 0.0))
    h = x[i + 1] - x[i]
    return x[i] + h * _hermite_root(y[i], y[i + 1], h * dy[i], h * dy[i + 1]), i


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
    reported as structure.  The crest table (zeros of v, u there, the mask
    of maxima) reaches _fit_oscillatory_tail as arrays.
    """
    params = profile.params
    u0 = equilibria(params).u_tail
    mask = _core_mask(profile)
    xi, u, v = profile.xi, profile.u, profile.v

    du, dv = vector_field(u, v, params)
    locs, i = _zeros(xi, v, dv, mask)
    vals = _hermite_value(xi, u, du, i, locs)
    crest = v[i] > 0.0  # v goes + -> -: u has a maximum
    maxima = list(zip(locs[crest].tolist(), vals[crest].tolist()))
    minima = list(zip(locs[~crest].tolist(), vals[~crest].tolist()))

    # v'' is the second row of _jacobian applied to (u', v').
    d2v = _force_slope(u, params) * du + params.epsilon / (params.delta * params.c) * dv
    inflections = _zeros(xi, dv, d2v, mask)[0].tolist()

    rate_plus = _fit_tail_band(xi, u, xi > 0.0, u0, "downstream", (1.0, 10.0))
    oscillatory = locs.size > 0
    if oscillatory:
        rate_minus, freq = _fit_oscillatory_tail(locs, vals, crest, u0, profile.options.tail_tol)
    else:
        rate_minus, freq = _fit_tail_band(xi, np.abs(u - u0), xi < 0.0, u0, "upstream"), None

    return ShapeReport(
        regime_observed="oscillatory" if oscillatory else "monotone",
        maxima=maxima,
        minima=minima,
        inflections=inflections,
        tail_decay_rate_plus=rate_plus,
        tail_decay_rate_minus=rate_minus,
        tail_frequency=freq,
    )


def _log_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against x, in closed form.

    sum((x - mean x)(log y - mean log y)) / sum((x - mean x)**2), in
    plain sum reductions: a two-parameter line needs no SVD, and numpy's
    LAPACK least-squares fit would add ~1.2 MiB resident on its first call
    in a process.  The two agree to a few ulp.
    """
    dx = x - np.mean(x)
    ly = np.log(y)
    return float(np.sum(dx * (ly - np.mean(ly))) / np.sum(dx * dx))


def _fit_tail_band(xi, dev, side, u0, name, ceilings=(1.0,)):
    """Log-slope of the deviations dev > 0 on side, a mask of one side of the front,
    under the first ceiling * _FIT_CEILING * u0 that holds >= 4 samples; else raise."""
    for ceiling in ceilings:
        sel = side & (dev > 0.0) & (dev < ceiling * _FIT_CEILING * u0)
        if np.count_nonzero(sel) >= 4:
            return _log_slope(xi[sel], dev[sel])
    raise NumericsError(f"fewer than 4 samples in the {name} tail")


def _fit_oscillatory_tail(locs, vals, crest, u0, tail_tol):
    """Envelope decay rate and crest frequency of the crest table (locs, vals,
    crest); either may be None when the spiral is so heavily damped that too
    few peaks rise above the noise.  The rate is the log-slope of |u - u0|."""
    amps = np.abs(vals - u0)
    for ceiling in (0.05, 0.2, np.inf):
        band = (amps > 3.0 * tail_tol) & (amps < ceiling * u0)
        if np.count_nonzero(band) >= 4:
            break
    rate = _log_slope(locs[band], amps[band]) if np.count_nonzero(band) >= 2 else None

    max_locs = locs[crest]
    usable = max_locs[amps[crest] > 3.0 * tail_tol]
    if usable.size < 3:
        usable = max_locs
    freq = float(2.0 * math.pi / np.mean(np.diff(usable))) if usable.size >= 2 else None
    return rate, freq


def energy_identity_residual(profile: Profile) -> float:
    """Relative mismatch of epsilon * integral(u'**2) vs the closed form.

    End-corrected trapezoid quadrature over the profile samples, exact for
    cubics on any mesh: h/2 (f0 + f1) + h**2/12 (f0' - f1') per interval,
    f = u'**2 with the exact slope f' = 2 u' u'', u'' = v' / (delta c).  It
    holds the same digits on the thinned rows of profile.csv as on the
    sweep's uniform grid; documented to stay below 1e-3 for
    tail_tol <= 1e-8 at the shipped sampling density.
    """
    params = profile.params
    du, dv = vector_field(profile.u, profile.v, params)
    f = du * du
    df = 2.0 * du * dv / (params.delta * params.c)
    h = np.diff(profile.xi)
    integral = np.sum(h * (0.5 * (f[:-1] + f[1:]) + h / 12.0 * (df[:-1] - df[1:])))
    lhs = params.epsilon * float(integral)
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
    tail = tail_eigenvalues(params)
    if not isinstance(tail, RealPair):
        raise ValueError("triangle confinement applies to regularized profiles only")
    slope = params.delta * params.c * tail.minus
    u0 = equilibria(params).u_tail
    margins = [
        -profile.v,  # v <= 0
        profile.u,  # u >= 0
        u0 - profile.u,  # u <= u_tail
        profile.v - slope * (profile.u - u0),  # above the lower edge
    ]
    return _bounds_check(profile, margins, u0)


def check_derivative_bounds(profile: Profile) -> BoundsCheck:
    """Verify the a priori two-sided bounds on v = delta c u'.

    Lower bound -(delta c / epsilon)(2 - 3 c**(2/3) + c**2) (the global
    maximum of the conservative force times delta c / epsilon); upper bound
    (delta c / epsilon)(c / w + c**2 / 2), w = c - u_bar from
    solitary_amplitude.  Both are intersected with |v| <= sqrt(2 delta c f(c)),
    f = dissipated_energy: V = v**2/2 + G(u) <= 0 along the bore and
    G >= G(u_tail) = -delta c f(c) on [0, u_bar].  That energy bound holds for
    any epsilon and w, so it still certifies at large c, where the upper
    bound grows like 1/w.
    Requires epsilon > 0.
    """
    params = profile.params
    if params.epsilon <= 0.0:
        raise ValueError("derivative bounds require epsilon > 0")
    c = params.c
    dc_over_eps = params.delta * c / params.epsilon
    energy = math.sqrt(2.0 * params.delta * c * dissipated_energy(c))
    lower = max(-dc_over_eps * (2.0 - 3.0 * c ** (2.0 / 3.0) + c * c), -energy)
    w = solitary_amplitude(c)[1]
    upper = min(dc_over_eps * (c / w + 0.5 * c * c), energy)
    return _bounds_check(profile, [profile.v - lower, upper - profile.v])


def _bounds_check(profile: Profile, margins, floor: float = 0.0) -> BoundsCheck:
    """Smallest of the margin arrays against the slack for integration error:
    10 (atol + rtol scale), scale the larger of floor and max |v|."""
    v_scale = float(np.max(np.abs(profile.v))) if profile.v.size else 1.0
    slack = 10.0 * (profile.options.atol + profile.options.rtol * max(floor, v_scale))
    worst = float(np.min(np.minimum.reduce(margins)))
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


def csv_rows(profile: Profile) -> np.ndarray:
    """Indices of the samples write_profile_csv writes, ascending.

    Let d = min(sqrt(_upstream_norm2), |u| + |v|) / u_tail: the distance to
    the nearer equilibrium, in the stop rule's norm upstream.  The cubic
    Hermite error between samples is h**4 max|y''''| / 384 (Hairer, Norsett
    & Wanner, II.6), and |y''''| scales with d, so the stride at a sample
    is the largest power of two at most
    clip((d / _THIN_DISTANCE)**(-1/4), 1, _MAX_STRIDE).  That is 2**j, j the
    number of levels _THIN_DISTANCE / 16, / 256 and / 4096 at or above d:
    1 wherever d > _THIN_DISTANCE / 16.  Sample k, counted from the seed, is
    written when its stride divides k; the seed (k = 0) and the stop sample
    (the first row) are always written, and written samples lie at most
    _MAX_STRIDE samples apart.
    """
    u, v = profile.u, profile.v
    d = np.minimum(np.sqrt(_upstream_norm2(u, v, profile.params)), np.abs(u) + np.abs(v))
    d /= equilibria(profile.params).u_tail
    # Ascending: _THIN_DISTANCE / 16**j for j = log2(_MAX_STRIDE) ... 1.
    levels = _THIN_DISTANCE / 16.0 ** np.arange(_MAX_STRIDE.bit_length() - 1, 0, -1)
    stride = 2 ** (levels.size - np.searchsorted(levels, d))
    keep = np.arange(d.size - 1, -1, -1) % stride == 0
    keep[0] = True
    return np.flatnonzero(keep)


def write_profile_csv(profile: Profile, path) -> int:
    """Write the samples at csv_rows as CSV with header xi,u,v,eta; return
    the number of rows written.

    Every value is written at full double precision (%.17g), so each row
    reads back as the sample it came from.
    """
    rows = csv_rows(profile)
    write_csv(path, "xi,u,v,eta",
              [profile.xi[rows], profile.u[rows], profile.v[rows], profile.eta[rows]])
    return rows.size


def load_profile_csv(path) -> dict:
    """Read a profile CSV, header xi,u,v,eta, under csvio.read_csv's policy."""
    names = ("xi", "u", "v", "eta")
    return dict(zip(names, read_csv(path, names)))


def write_shape_report_json(report: ShapeReport, path, solver: Optional[SolverRecord] = None) -> None:
    """Write the report as JSON, with a "solver" block when solver is given.

    The bytes are those of asdict's: the fields hold no dataclass, so the
    dict is built from them directly, without asdict's recursive copy.
    """
    data = {f.name: getattr(report, f.name) for f in fields(report)}
    if solver is not None:
        data["solver"] = {f.name: getattr(solver, f.name) for f in fields(solver)}
    write_json(path, data)

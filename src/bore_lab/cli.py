"""Command-line front end.

Subcommands:
    classify         regime and spectrum report for one parameter triple
    profile          integrate a traveling wave, write CSV/JSON/plot script
    speed-amplitude  tabulate the two amplitude branches against speed
    evolve           run a configured PDE experiment, write snapshots
    error-study      deviation-from-inviscid sweep with fitted gains
    overlay          compare a computed profile against gauge data
    preset-export    write a named preset as a config file

Exit codes: 0 success, 2 invalid input or config, 3 numerical failure.
All outputs are deterministic: the same flags and files produce
byte-identical results.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import (
    PRESETS,
    build_wave_params,
    load_config,
    preset_note,
    preset_pairs,
    write_config,
)
from .csvio import read_csv, write_csv, write_json
from .errors import ConfigError, NumericsError
# cmd_evolve marches each run itself; evolve stays importable here because
# bench/tracing.py wraps cli.evolve.
from .pde import (
    RunConfig,
    SystemKind,
    _check_bytes,
    _march,
    evolve,
    error_study,
    write_error_series_csv,
    write_snapshot_csv,
    write_snapshot_manifest,
)
from .traveling_wave import (
    ProfileOptions,
    integrate_profile,
    load_profile_csv,
    shape_report,
    write_profile_csv,
    write_shape_report_json,
)
from .waveform import (
    WaveParams,
    classify_regime,
    critical_epsilon,
    empirical_bore_amplitude,
    equilibria,
    potential,
    saddle_eigenvalues,
    solitary_amplitude,
    tail_eigenvalues,
)
from .waveform import ComplexConjugate

# A speed-amplitude row costs about 15 us; 1000x the default of 100 rows.
MAX_SPEED_AMPLITUDE_ROWS = 10**5


def _resolve_params(args) -> WaveParams:
    pairs = {}
    if args.preset is not None:
        pairs = {k: str(v) for k, v in preset_pairs(args.preset).items()}
        if pairs.get("kind") not in (None, "profile", "potential"):
            raise ConfigError(f"preset {args.preset!r} is not a parameter preset")
    for key in ("c", "delta", "epsilon"):
        value = getattr(args, key)
        if value is not None:
            pairs[key] = str(value)
    return build_wave_params(pairs)


def cmd_classify(args) -> int:
    """Print the regime and spectrum report as JSON."""
    params = _resolve_params(args)
    regime = classify_regime(params)
    eq = equilibria(params)
    lam_minus, lam_plus = saddle_eigenvalues(params)
    pair = tail_eigenvalues(params)
    u_bar, w = solitary_amplitude(params.c)
    if isinstance(pair, ComplexConjugate):
        tail = {"type": "complex", "real": pair.real, "imag": pair.imag}
    else:
        tail = {"type": "real", "minus": pair.minus, "plus": pair.plus}
    report = {
        "kind": regime.kind.value,
        "epsilon_squared": regime.criterion_lhs,
        "damping_threshold": regime.criterion_rhs,
        "critical_epsilon": critical_epsilon(params.c, params.delta),
        "u_tail": eq.u_tail,
        "eta_tail": eq.eta_tail,
        "u_solitary": u_bar,
        "eta_solitary": u_bar / w,
        "saddle_rate_minus": lam_minus,
        "saddle_rate_plus": lam_plus,
        "tail_rates": tail,
    }
    try:
        text = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:
        raise NumericsError(f"the report overflows a double at c = {params.c}, "
                            f"delta = {params.delta}, epsilon = {params.epsilon}") from None
    print(text)
    return 0


_PROFILE_PLOT = """\
# gnuplot script: surface elevation and phase portrait
set datafile separator ','
set key off
set multiplot layout 2,1
set xlabel 'xi'
set ylabel 'eta'
plot 'profile.csv' using 1:4 with lines
set xlabel 'u'
set ylabel 'v'
plot 'profile.csv' using 2:3 with lines
unset multiplot
"""


def cmd_profile(args) -> int:
    params = _resolve_params(args)
    # Each flag is named after its field; flags left out keep the field's default.
    given = {f.name: getattr(args, f.name) for f in fields(ProfileOptions)}
    options = ProfileOptions(**{k: v for k, v in given.items() if v is not None})
    profile = integrate_profile(params, options)
    report = shape_report(profile)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = write_profile_csv(profile, out_dir / "profile.csv")
    write_shape_report_json(report, out_dir / "shape.json", profile.solver)
    (out_dir / "plot.gp").write_text(_PROFILE_PLOT)
    print(f"wrote {out_dir / 'profile.csv'} ({rows} rows of {profile.xi.size} samples, "
          f"{report.regime_observed})")
    return 0


def cmd_speed_amplitude(args) -> int:
    """Tabulate eta_tail, eta_solitary and the T1994 fit against c."""
    if not 1.0 < args.c_min < args.c_max < math.inf:
        raise ConfigError(
            f"need 1 < c_min < c_max < inf, got c_min={args.c_min}, c_max={args.c_max}"
        )
    if not 2 <= args.n <= MAX_SPEED_AMPLITUDE_ROWS:
        raise ConfigError(
            f"need 2 to {MAX_SPEED_AMPLITUDE_ROWS} rows (the row cap), got {args.n}"
        )
    out = Path(args.out)
    rows = []
    for c in np.linspace(args.c_min, args.c_max, args.n).tolist():
        # First: WaveParams refuses a c with no tail gap, which solitary_amplitude divides by.
        eta_tail = equilibria(WaveParams(c, 1.0, 0.0)).eta_tail
        u_bar, w = solitary_amplitude(c)
        rows.append((c, eta_tail, u_bar / w, empirical_bore_amplitude(c)))
    write_csv(out, "c,eta_tail,eta_solitary,eta_T1994_inverse", np.transpose(rows))
    print(f"wrote {out} ({args.n} rows)")
    return 0


def _load_run_config(path) -> RunConfig:
    """The evolution config at path, refused if its t_end lets boundary
    effects reach the features at x = 0."""
    config = load_config(path)
    if not isinstance(config, RunConfig):
        raise ConfigError(f"{path} is not an evolution config")
    grid = config.grid
    if not grid.x_min < 0.0 < grid.x_max:
        raise ConfigError("initial features sit at x = 0; domain must straddle it")
    horizon = min(-grid.x_min, grid.x_max) / 3.0
    if config.t_end >= horizon:
        raise ConfigError(
            f"t_end = {config.t_end} reaches the boundary influence zone; "
            f"keep t_end below {horizon:.6g} or widen the domain"
        )
    return config


def _evolve_plot(n_snapshots: int, prefix: str) -> str:
    lines = [
        "# gnuplot script: surface elevation snapshots",
        "set datafile separator ','",
        "set xlabel 'x'",
        "set ylabel 'eta'",
    ]
    files = ", ".join(
        f"'{prefix}_{i:03d}.csv' using 1:2 with lines title 'snapshot {i}'"
        for i in range(n_snapshots)
    )
    lines.append(f"plot {files}")
    return "\n".join(lines) + "\n"


def cmd_evolve(args) -> int:
    """Run the config, and its shallow-water reference if asked, writing
    each snapshot's files as the march reaches it.

    Every input is checked before --out-dir is made; if a run then fails,
    the files written and the directories made are removed again."""
    config = _load_run_config(args.config)
    n_snapshots = len(config.snapshot_times or (config.t_end,))
    # Refused as evolve() refuses it, though no snapshot is kept.
    _check_bytes(config, 1, n_snapshots)
    runs = [("snapshot", config)]
    if args.reference is not None:
        ref_config = replace(config, system=SystemKind.SHALLOW_WATER, delta=0.0, epsilon=0.0)
        runs.append(("reference", ref_config))
    out_dir = Path(args.out_dir)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    # Which (run, position) files were begun: kept as flags, not paths, so
    # that what a run holds does not grow with its snapshot times.
    begun = np.zeros((len(runs), n_snapshots), dtype=bool)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "plot.gp").write_text(_evolve_plot(n_snapshots, "snapshot"))
        for r, (prefix, run_config) in enumerate(runs):
            for positions, state in _march(run_config, None):
                for i in positions:
                    begun[r, i] = True
                    write_snapshot_csv(state, config.grid, out_dir / f"{prefix}_{i:03d}.csv")
                    write_snapshot_manifest(run_config, state, out_dir / f"{prefix}_{i:03d}.json")
                # Written, so dropped: the march's next steps need not hold it.
                del state
    except BaseException:
        files = [out_dir / "plot.gp"] + [
            out_dir / f"{runs[r][0]}_{i:03d}.{suffix}"
            for r, i in np.argwhere(begun).tolist() for suffix in ("csv", "json")
        ]
        # Each removal is best effort, so that the run's own error is the
        # one reported.
        for path in files:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    print(f"wrote {n_snapshots} snapshots to {out_dir}")
    return 0


def cmd_error_study(args) -> int:
    config = _load_run_config(args.config)
    try:
        epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad epsilon list: {args.epsilons!r}") from None
    result = error_study(config, epsilons)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, series in enumerate(result.series):
        write_error_series_csv(series, out_dir / f"error_{i:03d}.csv")
    fits = [
        {
            "epsilon": fit.epsilon,
            "K": fit.gain,
            "window": [fit.window[0], fit.window[1]],
            "n_points": fit.n_points,
        }
        for fit in result.fits
    ]
    write_json(out_dir / "fits.json", fits)
    print(f"wrote {len(result.series)} series to {out_dir}")
    return 0


# _align_series refuses to resample either series to more points than
# this: np.correlate of two 2**16-point series takes ~0.7 s (2-vCPU
# machine), and a 400-row gauge read off a whole profile resamples both
# series to ~800.
MAX_ALIGN_SAMPLES = 2**17


def _align_series(t_model, e_model, t_data, e_data):
    """Shift making model time comparable to data time, by correlating the
    front slopes resampled at half the gauge's median time step.

    Raises ConfigError, before allocating, when either resampled series
    would hold fewer than 2 or more than MAX_ALIGN_SAMPLES points.
    """
    h = 0.5 * float(np.median(np.diff(t_data)))
    # np.arange's own length, before its ceiling; np.gradient needs 2 points.
    n_model, n_data = ((float(t[-1]) - float(t[0])) / h for t in (t_model, t_data))
    if not (1.0 < n_model <= MAX_ALIGN_SAMPLES and 1.0 < n_data <= MAX_ALIGN_SAMPLES):
        raise ConfigError(
            f"aligning would resample the profile to {n_model:.4g} and the gauge to "
            f"{n_data:.4g} points at spacing {h:.4g}, outside 2 to MAX_ALIGN_SAMPLES = "
            f"{MAX_ALIGN_SAMPLES}"
        )
    tm = np.arange(t_model[0], t_model[-1], h)
    td = np.arange(t_data[0], t_data[-1], h)
    gm = np.gradient(np.interp(tm, t_model, e_model), h)
    gd = np.gradient(np.interp(td, t_data, e_data), h)
    corr = np.correlate(gd, gm, mode="full")
    k = int(np.argmax(corr))
    dk = 0.0
    if 0 < k < corr.size - 1:
        denom = corr[k - 1] - 2.0 * corr[k] + corr[k + 1]
        if denom < 0.0:
            dk = 0.5 * (corr[k - 1] - corr[k + 1]) / denom
    lag = (k - (gm.size - 1) + dk) * h
    return float(td[0] - tm[0] + lag)


def cmd_overlay(args) -> int:
    data = load_profile_csv(args.profile)
    # Each row fixes the speed, eta = u / (c - u); the median outvotes the
    # rows where u and eta are both near 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        rows_c = data["u"] + data["u"] / data["eta"]
    rows_c = rows_c[np.isfinite(rows_c)]
    c = float(np.median(rows_c)) if rows_c.size else math.nan
    if not c > 1.0:
        raise ConfigError(f"{args.profile}: its rows give no finite Froude number above 1")
    # A steady wave passing a fixed gauge: xi = x0 - c t, so the time trace
    # is the profile read right to left.
    t_model = -data["xi"][::-1] / c
    e_model = data["eta"][::-1]
    t_data, e_data = read_csv(args.data, 2)
    shift = _align_series(t_model, e_model, t_data, e_data)
    t_shifted = t_model + shift
    mask = (t_data >= t_shifted[0]) & (t_data <= t_shifted[-1])
    if np.count_nonzero(mask) < 5:
        raise ConfigError("gauge data barely overlaps the computed profile")
    resid = np.interp(t_data[mask], t_shifted, e_model) - e_data[mask]
    report = {
        "froude": c,
        "shift": shift,
        "n_overlap": int(np.count_nonzero(mask)),
        "rms_misfit": float(np.sqrt(np.mean(resid**2))),
        "crest_model": float(np.max(e_model)),
        "crest_data": float(np.max(e_data)),
        "crest_difference": float(np.max(e_model) - np.max(e_data)),
    }
    write_json(args.out, report)
    print(f"wrote {args.out} (rms {report['rms_misfit']:.4g})")
    return 0


_POTENTIAL_PLOT = """\
# gnuplot script: potential landscape with the zero-energy barrier
set datafile separator ','
set key off
set xlabel 'u'
set ylabel 'G'
set xzeroaxis
plot 'potential.csv' using 1:2 with lines
"""


def _export_potential(pairs: dict, out_dir: Path) -> None:
    params = WaveParams(float(pairs["c"]), float(pairs["delta"]), 0.0)
    u_hi = params.c - 0.75 * solitary_amplitude(params.c)[1]
    grid = np.linspace(-0.4, u_hi, 801)
    write_csv(out_dir / "potential.csv", "u,G", [grid, potential(grid, params)])
    (out_dir / "potential.gp").write_text(_POTENTIAL_PLOT)


def cmd_preset_export(args) -> int:
    if args.name is None:
        for name in sorted(PRESETS):
            print(f"{name}: {preset_note(name)}")
        return 0
    pairs = preset_pairs(args.name)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.conf"
    write_config(pairs, path, comment=f"{args.name}: {preset_note(args.name)}")
    if pairs.get("kind") == "potential":
        _export_potential(pairs, out_dir)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bore-lab",
        description="Traveling-wave and evolution laboratory for dissipative bores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--preset", help="named parameter preset (see preset-export)")
        p.add_argument("--c", type=float, help="Froude number, > 1")
        p.add_argument("--delta", type=float, help="dispersion coefficient, > 0")
        p.add_argument("--epsilon", type=float, help="dissipation coefficient, >= 0")

    p = sub.add_parser("classify", help="regime and spectrum report")
    add_params(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("profile", help="integrate a traveling-wave profile")
    add_params(p)
    p.add_argument("--out-dir", required=True)
    # Defaults live in ProfileOptions; cmd_profile passes only given flags.
    p.add_argument("--seed-offset", type=float,
                   help="manifold seed offset (default 1e-8 * u_tail)")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--max-span", type=float)
    p.add_argument("--tail-tol", type=float)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("speed-amplitude", help="amplitude branches vs speed")
    p.add_argument("--c-min", type=float, required=True)
    p.add_argument("--c-max", type=float, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_speed_amplitude)

    p = sub.add_parser("evolve", help="run a configured PDE experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--reference", choices=["shallow-water"], default=None,
                   help="also run the dispersionless reference system")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("error-study", help="deviation-from-inviscid sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--epsilons", required=True,
                   help="comma-separated positive values")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_error_study)

    p = sub.add_parser("overlay", help="compare a profile against gauge data")
    p.add_argument("--profile", required=True, help="profile CSV from `profile`")
    p.add_argument("--data", required=True, help="gauge CSV with rows t,eta")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_overlay)

    p = sub.add_parser("preset-export", help="list presets or write one as a config")
    p.add_argument("--name", default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_preset_export)

    return parser


# One parser per process, built at the first main call and not at import:
# parse_args returns a fresh Namespace each call and leaves the parser as
# it was, so repeated main calls share it.
@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

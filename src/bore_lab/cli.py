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
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import (
    PRESETS,
    build_wave_params,
    load_config,
    preset_note,
    preset_pairs,
)
from .csvio import write_csv
from .errors import ConfigError, NumericsError
from .pde import (
    RunConfig,
    SystemKind,
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
    surface_elevation,
    tail_eigenvalues,
)
from .waveform import ComplexConjugate


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
    params = _resolve_params(args)
    regime = classify_regime(params)
    eq = equilibria(params)
    lam_minus, lam_plus = saddle_eigenvalues(params)
    spec = tail_eigenvalues(params)
    u_bar = solitary_amplitude(params.c)
    if isinstance(spec.tail, ComplexConjugate):
        tail = {"type": "complex", "real": spec.tail.real, "imag": spec.tail.imag}
    else:
        tail = {"type": "real", "minus": spec.tail.minus, "plus": spec.tail.plus}
    report = {
        "kind": regime.kind.value,
        "epsilon_squared": regime.criterion_lhs,
        "damping_threshold": regime.criterion_rhs,
        "critical_epsilon": critical_epsilon(params.c, params.delta),
        "u_tail": eq.u_tail,
        "eta_tail": eq.eta_tail,
        "u_solitary": u_bar,
        "eta_solitary": surface_elevation(u_bar, params.c),
        "saddle_rate_minus": lam_minus,
        "saddle_rate_plus": lam_plus,
        "tail_rates": tail,
    }
    print(json.dumps(report, indent=2))
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
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profile = integrate_profile(params, options)
    report = shape_report(profile)
    write_profile_csv(profile, out_dir / "profile.csv")
    write_shape_report_json(report, out_dir / "shape.json", profile.solver)
    (out_dir / "plot.gp").write_text(_PROFILE_PLOT)
    print(f"wrote {out_dir / 'profile.csv'} ({profile.xi.size} samples, "
          f"{report.regime_observed})")
    return 0


def cmd_speed_amplitude(args) -> int:
    if not 1.0 < args.c_min < args.c_max < math.inf:
        raise ConfigError(
            f"need 1 < c_min < c_max < inf, got c_min={args.c_min}, c_max={args.c_max}"
        )
    if args.n < 2:
        raise ConfigError(f"need at least 2 rows, got {args.n}")
    out = Path(args.out)
    rows = [
        (
            c,
            equilibria(WaveParams(c, 1.0, 0.0)).eta_tail,
            surface_elevation(solitary_amplitude(c), c),
            empirical_bore_amplitude(c),
        )
        for c in np.linspace(args.c_min, args.c_max, args.n).tolist()
    ]
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
    config = _load_run_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshots = evolve(config)
    for i, snap in enumerate(snapshots):
        write_snapshot_csv(snap, config.grid, out_dir / f"snapshot_{i:03d}.csv")
        write_snapshot_manifest(config, snap, out_dir / f"snapshot_{i:03d}.json")
    (out_dir / "plot.gp").write_text(_evolve_plot(len(snapshots), "snapshot"))
    if args.reference is not None:
        ref_config = RunConfig(
            system=SystemKind.SHALLOW_WATER,
            grid=config.grid,
            ic=config.ic,
            dt=config.dt,
            t_end=config.t_end,
            delta=0.0,
            epsilon=0.0,
            snapshot_times=config.snapshot_times,
        )
        for i, snap in enumerate(evolve(ref_config)):
            write_snapshot_csv(snap, config.grid, out_dir / f"reference_{i:03d}.csv")
            write_snapshot_manifest(ref_config, snap, out_dir / f"reference_{i:03d}.json")
    print(f"wrote {len(snapshots)} snapshots to {out_dir}")
    return 0


def cmd_error_study(args) -> int:
    config = _load_run_config(args.config)
    try:
        epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad epsilon list: {args.epsilons!r}") from None
    if not epsilons:
        raise ConfigError("epsilon list is empty")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = error_study(config, epsilons)
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
    with open(out_dir / "fits.json", "w") as fh:
        json.dump(fits, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(result.series)} series to {out_dir}")
    return 0


def _load_gauge_csv(path) -> tuple:
    times = []
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and any(not _is_number(p) for p in parts):
                continue  # header row
            if len(parts) != 2:
                raise ConfigError(
                    f"{path}: line {lineno}: expected 2 columns, got {len(parts)}"
                )
            try:
                t, e = float(parts[0]), float(parts[1])
            except ValueError:
                raise ConfigError(
                    f"{path}: line {lineno}: non-numeric value"
                ) from None
            times.append(t)
            values.append(e)
    if len(times) < 10:
        raise ConfigError(f"{path}: gauge data needs at least 10 rows")
    t = np.array(times)
    e = np.array(values)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(e))):
        raise ConfigError(f"{path}: non-finite gauge values")
    if np.any(np.diff(t) <= 0.0):
        raise ConfigError(f"{path}: gauge times must be strictly increasing")
    return t, e


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _align_series(t_model, e_model, t_data, e_data):
    """Shift making model time comparable to data time, by correlating the
    front slopes on a common uniform sampling."""
    h = 0.5 * min(float(np.median(np.diff(t_model))), float(np.median(np.diff(t_data))))
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
    if not 1.0 < args.c < math.inf:
        raise ConfigError(f"Froude number must be finite and exceed 1, got {args.c}")
    # A steady wave passing a fixed gauge: xi = x0 - c t, so the time trace
    # is the profile read right to left.
    t_model = -data["xi"][::-1] / args.c
    e_model = data["eta"][::-1]
    t_data, e_data = _load_gauge_csv(args.data)
    shift = _align_series(t_model, e_model, t_data, e_data)
    t_shifted = t_model + shift
    mask = (t_data >= t_shifted[0]) & (t_data <= t_shifted[-1])
    if np.count_nonzero(mask) < 5:
        raise ConfigError("gauge data barely overlaps the computed profile")
    resid = np.interp(t_data[mask], t_shifted, e_model) - e_data[mask]
    report = {
        "froude": args.c,
        "shift": shift,
        "n_overlap": int(np.count_nonzero(mask)),
        "rms_misfit": float(np.sqrt(np.mean(resid**2))),
        "crest_model": float(np.max(e_model)),
        "crest_data": float(np.max(e_data)),
        "crest_difference": float(np.max(e_model) - np.max(e_data)),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
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
    u_bar = solitary_amplitude(params.c)
    u_hi = u_bar + 0.25 * (params.c - u_bar)
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
    with open(path, "w") as fh:
        fh.write(f"# {args.name}: {preset_note(args.name)}\n")
        for key, value in pairs.items():
            if isinstance(value, float):
                fh.write(f"{key} = {value:.17g}\n")
            else:
                fh.write(f"{key} = {value}\n")
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
    p.add_argument("--c", type=float, required=True, help="Froude number")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_overlay)

    p = sub.add_parser("preset-export", help="list presets or write one as a config")
    p.add_argument("--name", default=None)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_preset_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

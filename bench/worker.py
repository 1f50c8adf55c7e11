"""One fresh process that runs a workload's passes through bore_lab.cli.main.

Started by run.py with src/ on PYTHONPATH; not meant to be run by hand.
With --setup-only it imports bore_lab, writes the workload's config files
and exits, which is what run.py times as set-up.  Otherwise it runs passes
in pairs until --seconds have gone by, checks every command's outputs
against the acceptance tolerances, and writes result.json into --run-dir.
With --trace 1 each pass runs twice, untraced and then traced, so the
tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import bore_lab
from bore_lab import cli, config, traveling_wave, waveform

from workloads import CONFIG_FILES, C08_EPSILONS, pass_commands, stiff_deltas

# Acceptance tolerances (tests/test_acceptance.py), unchanged.
ENERGY_RESIDUAL_MAX = 1e-3
MASS_DRIFT_MAX = 1e-10
GAIN_RATIO_MAX = 2.0
_OBSERVED = {waveform.RegimeKind.REGULARIZED: "monotone",
             waveform.RegimeKind.OSCILLATORY: "oscillatory"}


def write_configs(workload: str, config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for name, text in CONFIG_FILES[workload].items():
        (config_dir / name).write_text(text)


def input_block(workload: str, seed: int, config_dir: Path, passes: list) -> dict:
    """Resolved inputs and working-set size; byte counts are computed."""
    block = {"pass_0": [c.label for c in pass_commands(workload, seed, 0)],
             "pass_1": [c.label for c in pass_commands(workload, seed, 1)]}
    if workload == "profile-presets":
        samples = max((c["diagnostics"]["samples"] for p in passes
                       for c in p["commands"] if "diagnostics" in c), default=0)
        block["stiff_delta_even_odd"] = list(stiff_deltas(seed))
        block["working_set"] = {"radau_state_doubles": 2, "largest_profile_samples": samples,
                                "largest_profile_bytes_computed": samples * 4 * 8}
        return block
    (path,) = (config_dir / name for name in CONFIG_FILES[workload])
    run = config.load_config(path)
    # evolve: the run and its shallow-water reference; error-study: the
    # inviscid run and one per epsilon.
    runs = 2 if workload == "evolve-riemann" else 1 + len(C08_EPSILONS.split(","))
    state = 2 * 8 * run.grid.n
    block["working_set"] = {
        "cells": run.grid.n, "steps_per_run": int(round(run.t_end / run.dt)),
        "runs": runs, "state_bytes_computed": state,
        "snapshot_bytes_computed": runs * len(run.snapshot_times) * state,
    }
    return block


def _cpu() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# --------------------------------------------------------------------------
# correctness gates: each returns (failures, diagnostics)

def gate_profile(cmd, out: Path):
    if cmd.preset is not None:
        params = config.build_wave_params(
            {k: str(v) for k, v in config.preset_pairs(cmd.preset).items()})
    else:
        params = waveform.WaveParams(*cmd.params)
    data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1, ndmin=2)
    shape = json.loads((out / "shape.json").read_text())
    options = traveling_wave.ProfileOptions()
    profile = traveling_wave.Profile(
        params=params, xi=data[:, 0], u=data[:, 1], v=data[:, 2], eta=data[:, 3],
        seed_offset=1e-8 * waveform.equilibria(params).u_tail, options=options,
    )
    failures = []
    kind = waveform.classify_regime(params).kind
    if shape["regime_observed"] != _OBSERVED[kind]:
        failures.append(f"observed {shape['regime_observed']}, predicted {kind.value}")
    residual = traveling_wave.energy_identity_residual(profile)
    if not residual < ENERGY_RESIDUAL_MAX:
        failures.append(f"energy identity residual {residual:.3g}")
    backstep = traveling_wave.lyapunov_backstep(profile)
    if not backstep <= 10.0 * (options.rtol + options.atol):
        failures.append(f"Lyapunov backstep {backstep:.3g}")
    if not traveling_wave.check_derivative_bounds(profile).passed:
        failures.append("derivative bounds")
    if kind is waveform.RegimeKind.REGULARIZED:
        if not traveling_wave.check_triangle_confinement(profile).passed:
            failures.append("triangle confinement")
    return failures, {"energy_residual": residual, "samples": data.shape[0]}


def gate_evolve(cmd, out: Path):
    failures = []
    drift_max = 0.0
    for prefix in ("snapshot", "reference"):
        files = sorted(out.glob(f"{prefix}_*.csv"))
        if len(files) < 2:
            failures.append(f"{len(files)} {prefix} files")
            continue
        masses = []
        for path in files:
            x, eta, u = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
            if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(u))):
                failures.append(f"non-finite values in {path.name}")
            masses.append(float(np.sum(eta)) * (x[1] - x[0]))
        drift = abs(masses[-1] - masses[0]) / max(1.0, abs(masses[0]))
        drift_max = max(drift_max, drift)
        if not drift < MASS_DRIFT_MAX:
            failures.append(f"{prefix} mass drift {drift:.3g}")
    return failures, {"mass_drift": drift_max}


def gate_error_study(cmd, out: Path):
    n_eps = len(C08_EPSILONS.split(","))
    failures = []
    series = sorted(out.glob("error_*.csv"))
    if len(series) != n_eps:
        failures.append(f"{len(series)} error series")
    fits = json.loads((out / "fits.json").read_text())
    gains = [fit["K"] for fit in fits]
    if len(gains) != n_eps:
        failures.append(f"{len(gains)} fits")
    elif not (min(gains) > 0.0 and max(gains) / min(gains) <= GAIN_RATIO_MAX):
        failures.append(f"gain ratio {max(gains) / min(gains):.3g}")
    return failures, {}


GATES = {"profile": gate_profile, "evolve": gate_evolve, "error-study": gate_error_study}


# --------------------------------------------------------------------------

def run_command(cmd, main, out_root: Path, config_dir: Path):
    argv = cmd.resolve(str(out_root), str(config_dir))
    sink = io.StringIO()
    cpu0 = _cpu()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = main(argv)
    except Exception:
        rc = None
        sink.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = _cpu() - cpu0
    record = {"label": cmd.label, "rc": rc, "wall": wall, "cpu": cpu, "failures": []}
    if rc != 0:
        record["failures"].append(f"exit code {rc}: {sink.getvalue().strip()[-300:]}")
    else:
        out = Path(argv[argv.index("--out-dir") + 1])
        try:
            record["failures"], record["diagnostics"] = GATES[cmd.kind](cmd, out)
        except Exception as exc:  # a broken output is a failed gate, not a crash
            record["failures"].append(f"gate error: {exc!r}")
    return record


def run_pass(cmds, index, cpus, main, out_root, config_dir):
    """Run one pass; cpus is the sorted list of CPUs the worker may use.

    Each CPU of a shared machine speeds up and slows down on its own, for
    tens of seconds at a time.  A command that runs in one process is
    pinned to one CPU and the next command to the next CPU, so that every
    run samples all of them.  error-study forks a pool sized by
    os.cpu_count() and keeps every CPU.
    """
    records = []
    for position, cmd in enumerate(cmds):
        pinned = {cpus[(index + position) % len(cpus)]}
        os.sched_setaffinity(0, set(cpus) if cmd.kind == "error-study" else pinned)
        records.append(run_command(cmd, main, out_root, config_dir))
    os.sched_setaffinity(0, set(cpus))
    return {
        "wall": sum(r["wall"] for r in records),
        "cpu": sum(r["cpu"] for r in records),
        "cmd_max": max(r["wall"] for r in records),
        "commands": records,
    }


def _diagnostic_max(record, key):
    return max((c.get("diagnostics", {}).get(key, 0.0) for c in record["commands"]),
               default=0.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(bore_lab.__file__).resolve().is_relative_to(src):
        sys.exit(f"imported bore_lab from {bore_lab.__file__}, not from {src}")

    run_dir = Path(args.run_dir)
    config_dir = run_dir / "config"
    write_configs(args.workload, config_dir)
    if args.setup_only:
        return 0

    out_root = run_dir / "out"
    tracer = None
    if args.trace:
        from tracing import Tracer, install, pass_layers, self_times
        tracer = Tracer()
        traced_main = tracer.spanned("cli.main", cli.main)

    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    marks = []
    t_start = time.perf_counter()
    index = 0
    while True:
        cmds = pass_commands(args.workload, args.seed, index)
        record = run_pass(cmds, index, cpus, cli.main, out_root, config_dir)
        record.update(index=index, traced=False)
        passes.append(record)
        if tracer is not None:
            begin = tracer.mark()
            install(tracer)
            try:
                record = run_pass(cmds, index, cpus, traced_main, out_root, config_dir)
            finally:
                tracer.uninstall()
            marks.append((begin, tracer.mark()))
            record.update(index=index, traced=True, spans=marks[-1][1][0] - begin[0])
            passes.append(record)
        index += 1
        if index % 2 == 0 and time.perf_counter() - t_start >= args.seconds:
            break

    result = {
        "passes": passes,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "bore_lab": bore_lab.__version__},
        "inputs": input_block(args.workload, args.seed, config_dir, passes),
        "peak_rss_kb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss],
    }
    if tracer is not None:
        own = self_times(*tracer.arrays()[1:])
        traced = [p for p in passes if p["traced"]]
        for record, (begin, end_mark) in zip(traced, marks):
            layers, computed = pass_layers(tracer, begin, end_mark, own)
            layers["traveling_wave.energy_residual_max"] = _diagnostic_max(record, "energy_residual")
            layers["pde.mass_drift_max"] = _diagnostic_max(record, "mass_drift")
            record["layers"] = layers
            record["computed"] = computed
        tracer.dump(run_dir / "spans.npz", [(b[0], e[0]) for b, e in marks])
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

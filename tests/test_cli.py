"""End-to-end checks of the command-line surface: exit codes, file
outputs, and byte-level determinism."""

import ast
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bore_lab
import bore_lab.cli
from bore_lab.cli import main
from bore_lab.config import build_wave_params, load_config, preset_pairs
from bore_lab.errors import NumericsError
from bore_lab.pde import (
    SystemKind,
    evolve,
    write_snapshot_csv,
    write_snapshot_manifest,
)
from bore_lab.traveling_wave import csv_rows, integrate_profile
from bore_lab.waveform import (
    WaveParams,
    critical_epsilon,
    equilibria,
    solitary_amplitude,
    surface_elevation,
)

SMALL_RUN = """\
kind = evolution
system = peregrine-dissipative
delta = 1
epsilon = 0.1
ic = riemann
eta_left = 0.5
x_min = -100
x_max = 100
dx = 0.25
dt = 0.025
t_end = 6
snapshot_times = 0,3,6
"""

# A shorter run with snapshots past t = 0, for error-study's fits.
STUDY_RUN = SMALL_RUN.replace("t_end = 6", "t_end = 4").replace(
    "snapshot_times = 0,3,6", "snapshot_times = 1,2,3,4"
)


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile")
    assert main(["profile", "--preset", "fig2", "--out-dir", str(out)]) == 0
    return out


def write_small_config(tmp_path, text=SMALL_RUN):
    path = tmp_path / "run.conf"
    path.write_text(text)
    return str(path)


# ---- classify ----------------------------------------------------------


def test_classify_reports_regime(capsys):
    assert main(["classify", "--c", "1.3", "--delta", "0.2",
                 "--epsilon", "1.2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "regularized"
    assert report["epsilon_squared"] == pytest.approx(1.44)
    assert report["critical_epsilon"] == pytest.approx(
        critical_epsilon(1.3, 0.2), rel=1e-12
    )
    eq = equilibria(WaveParams(1.3, 0.2, 1.2))
    assert report["eta_tail"] == pytest.approx(eq.eta_tail, rel=1e-12)
    assert report["tail_rates"]["type"] == "real"
    assert report["saddle_rate_minus"] < 0.0 < report["saddle_rate_plus"]


def test_classify_preset_with_override(capsys):
    assert main(["classify", "--preset", "fig5"]) == 0
    oscillatory = json.loads(capsys.readouterr().out)
    assert oscillatory["kind"] == "oscillatory"
    assert oscillatory["tail_rates"]["type"] == "complex"
    assert main(["classify", "--preset", "fig5", "--epsilon", "1.0"]) == 0
    damped = json.loads(capsys.readouterr().out)
    assert damped["kind"] == "regularized"


def test_classify_large_speed(capsys):
    # At c = 5 the converged crest leaves |g| ~ 4e-11: g's terms are O(c**3);
    # at c = 9.5 it lies 169 ulps below c.
    for c in (5.0, 9.5):
        assert main(["classify", "--c", str(c), "--delta", "0.5", "--epsilon", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["u_tail"] < report["u_solitary"] < c


def test_classify_is_deterministic(capsys):
    main(["classify", "--preset", "fig2"])
    first = capsys.readouterr().out
    main(["classify", "--preset", "fig2"])
    assert capsys.readouterr().out == first


def _run_python(*args):
    """Run a fresh interpreter that imports this checkout's bore_lab."""
    src = str(Path(bore_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_python_dash_m_runs_the_cli():
    out = _run_python("-m", "bore_lab", "classify", "--preset", "fig2")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["kind"]


def test_import_loads_no_scipy():
    # scipy is imported at first use, and then only a compiled module
    # (see bore_lab._scipy); a module-level import of a scipy package
    # would add its start-up (~0.4 s for scipy.integrate) to every command.
    out = _run_python(
        "-c",
        "import sys, bore_lab, bore_lab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_src_imports_no_scipy_package_by_name():
    # The runtime checks see only the modules a command runs; this reads
    # every module, so that bore_lab._scipy.extension stays the one way in.
    for path in sorted(Path(bore_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path.name, names)


# After a command, a later public import of the package must reuse the
# module the command loaded from its file: for LAPACK, the very dpttrf and
# dpttrs a Helmholtz solver takes.  The command's own solver is gone by
# then: each run's march releases its workspace, solver included, when it
# ends.
LAPACK_IDENTITY = """\
from bore_lab import pde
from bore_lab.config import load_config
from scipy.linalg import lapack
config = load_config(sys.argv[1])
released = pde._stage.cache_info().currsize == 0
solver = pde._HelmholtzSolver(config.delta, config.grid)
same = [released,
        solver._dpttrs is lapack.dpttrs,
        sys.modules["scipy.linalg._flapack"].dpttrf is lapack.dpttrf]
"""


@pytest.mark.parametrize(
    "argv, module, identity",
    [
        pytest.param(
            ["profile", "--preset", "fig6-c"], "scipy.integrate._odepack",
            "from scipy.integrate import _odepack_py\n"
            "same = [_odepack_py._odepack is sys.modules['scipy.integrate._odepack']]\n",
            id="profile",
        ),
        pytest.param(
            ["evolve", "--config", "{config}", "--reference", "shallow-water"],
            "scipy.linalg._flapack", LAPACK_IDENTITY, id="evolve",
        ),
        pytest.param(
            ["error-study", "--config", "{config}", "--epsilons", "0.1,0.05"],
            "scipy.linalg._flapack", LAPACK_IDENTITY, id="error-study",
        ),
    ],
)
def test_commands_load_no_scipy_package_init(tmp_path, argv, module, identity):
    # Each command loads the one compiled scipy module it needs from its
    # file: none of the package inits of scipy.linalg, scipy.sparse,
    # scipy.special, scipy.optimize, scipy.integrate or scipy.interpolate
    # runs.
    conf = write_small_config(tmp_path, STUDY_RUN)
    argv = [a.format(config=conf) for a in argv] + ["--out-dir", str(tmp_path / "out")]
    script = (
        "import json, sys\n"
        "from bore_lab import cli\n"
        f"code = cli.main({argv!r})\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        f"{identity}"
        "print(json.dumps([code, loaded, same]))\n"
    )
    out = _run_python("-c", script, conf)
    assert out.returncode == 0, out.stderr
    code, loaded, same = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert_only_compiled_scipy(loaded, [module])
    assert same and all(same), same


def assert_only_compiled_scipy(loaded, modules):
    """Each of modules is among the loaded scipy modules, and no other
    module of scipy.linalg, sparse, special, optimize, integrate or
    interpolate is: none of their package inits ran."""
    assert set(modules) <= set(loaded), loaded
    for package in ("linalg", "sparse", "special", "optimize", "integrate", "interpolate"):
        assert not [m for m in loaded if m.split(".")[1:2] == [package] and m not in modules], package


def test_profile_injection_loads_no_scipy_package_init():
    # The library path that carries a computed profile through the PDE
    # (c07) interpolates in numpy: it loads LSODA's and LAPACK's compiled
    # modules and no scipy package init.
    script = (
        "import json, sys\n"
        "from bore_lab.pde import (Grid, RunConfig, SmoothedRiemann, evolve,\n"
        "                          sample_profile_on_grid, shape_misfit)\n"
        "from bore_lab.traveling_wave import integrate_profile\n"
        "from bore_lab.waveform import WaveParams\n"
        "params = WaveParams(1.3, 0.2, 1.2)\n"
        "profile = integrate_profile(params)\n"
        "g = Grid(-100.0, 100.0, 800, 'periodic')\n"
        "cfg = RunConfig('peregrine-dissipative', g, SmoothedRiemann(0.4, 2.0), 0.025, 0.25,\n"
        "                delta=params.delta, epsilon=params.epsilon)\n"
        "init = sample_profile_on_grid(profile, g, blend_center=-50.0)\n"
        "final = evolve(cfg, initial=init)[-1]\n"
        "misfit = shape_misfit(init, final, g, shift=params.c * 0.25, window=(-20.0, 20.0))\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([misfit, loaded]))\n"
    )
    out = _run_python("-c", script)
    assert out.returncode == 0, out.stderr
    misfit, loaded = json.loads(out.stdout.splitlines()[-1])
    assert 0.0 < misfit < 1e-2
    assert_only_compiled_scipy(loaded, ["scipy.integrate._odepack", "scipy.linalg._flapack"])


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--c", "0.9", "--delta", "0.2", "--epsilon", "1.2"],
        ["classify", "--c", "1.3", "--delta", "0.2"],  # epsilon missing
        ["classify", "--preset", "nope"],
        ["classify", "--preset", "sec4-riemann"],  # not a parameter preset
    ],
)
def test_classify_rejects_bad_input(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


# ---- profile -----------------------------------------------------------


def test_profile_writes_three_artifacts(profile_dir):
    assert sorted(p.name for p in profile_dir.iterdir()) == [
        "plot.gp", "profile.csv", "shape.json",
    ]
    shape = json.loads((profile_dir / "shape.json").read_text())
    assert shape["regime_observed"] == "monotone"
    header = (profile_dir / "profile.csv").read_text().splitlines()[0]
    assert header == "xi,u,v,eta"
    plot = (profile_dir / "plot.gp").read_text()
    assert "profile.csv" in plot
    assert "separator ','" in plot


def test_profile_reruns_byte_identical(profile_dir, tmp_path, capsys):
    assert main(["profile", "--preset", "fig2", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("profile.csv", "shape.json", "plot.gp"):
        assert (tmp_path / name).read_bytes() == (profile_dir / name).read_bytes()


def test_profile_rejects_undamped_parameters(tmp_path, capsys):
    rc = main(["profile", "--c", "1.3", "--delta", "0.2", "--epsilon", "0",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--rtol", "--atol"])
def test_profile_rejects_zero_tolerance(flag, tmp_path, capsys):
    rc = main(["profile", "--preset", "fig2", flag, "0", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "tolerances must be positive" in capsys.readouterr().err


def test_profile_rejects_tail_tol_below_the_floor(tmp_path, capsys):
    # Below the roundoff floor the stopping test could never fire.
    rc = main(["profile", "--preset", "fig2", "--tail-tol", "1e-30", "--max-span", "1e7",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "tail_tol must be at least 1e-13" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_profile_over_the_sample_budget_exits_2_at_once(tmp_path, capsys):
    # The spiral decays at epsilon / (2 delta c) ~ 2e-4, so the sweep would
    # take about 4.4e6 samples; it is refused before the solver runs.
    start = time.perf_counter()
    rc = main(["profile", "--c", "1.3", "--delta", "0.2", "--epsilon", "1e-4",
               "--max-span", "1e6", "--out-dir", str(tmp_path / "out")])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert "MAX_PROFILE_SAMPLES = 2097152" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_profile_exhausted_span_exits_3(tmp_path, capsys):
    rc = main(["profile", "--preset", "fig2", "--max-span", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "max_span" in capsys.readouterr().err


def test_profile_records_solver_block(profile_dir):
    solver = json.loads((profile_dir / "shape.json").read_text())["solver"]
    assert set(solver) == {"method", "steps", "rhs_evals", "jac_evals", "samples",
                           "xi_span", "seed_offset"}
    rows = (profile_dir / "profile.csv").read_text().splitlines()[1:]
    # samples counts the sweep's work; the CSV holds the thinned subset.
    assert len(rows) <= solver["samples"]
    profile = integrate_profile(build_wave_params(
        {k: str(v) for k, v in preset_pairs("fig2").items()}))
    assert solver["samples"] == profile.xi.size
    kept = csv_rows(profile)
    table = np.column_stack([profile.xi, profile.u, profile.v, profile.eta])[kept]
    assert rows == [",".join("%.17g" % x for x in row) for row in table.tolist()]
    assert solver["method"] == "LSODA"
    assert solver["xi_span"] == [float(rows[0].split(",")[0]),
                                 float(rows[-1].split(",")[0])]


def test_profile_prints_the_rows_it_wrote(tmp_path, capsys):
    # fig6-c's thinned profile.csv holds fewer rows than the sweep's samples.
    assert main(["profile", "--preset", "fig6-c", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    match = re.fullmatch(r"wrote (.+) \((\d+) rows of (\d+) samples, oscillatory\)\n", out)
    assert match is not None, out
    data_rows = (tmp_path / "profile.csv").read_text().splitlines()[1:]
    assert match[1] == str(tmp_path / "profile.csv")
    assert int(match[2]) == len(data_rows)
    samples = json.loads((tmp_path / "shape.json").read_text())["solver"]["samples"]
    assert int(match[3]) == samples > len(data_rows)


# ---- speed-amplitude ---------------------------------------------------


def test_speed_amplitude_table(tmp_path, capsys):
    out = tmp_path / "branches.csv"
    assert main(["speed-amplitude", "--c-min", "1.05", "--c-max", "1.4",
                 "--n", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert rows.shape == (8,)
    for column in rows.dtype.names:
        assert np.all(np.diff(rows[column]) > 0.0)
    # the linspace lands on c = 1.2 exactly
    i = np.argmin(np.abs(rows["c"] - 1.2))
    assert rows["c"][i] == 1.2
    assert rows["eta_tail"][i] == pytest.approx(0.2817374897442327, rel=1e-12)
    expected_bar = surface_elevation(solitary_amplitude(1.2)[0], 1.2)
    assert rows["eta_solitary"][i] == pytest.approx(expected_bar, rel=1e-12)
    assert np.all(rows["eta_solitary"] > rows["eta_tail"])


def test_crest_outputs_are_finite_past_c_10(tmp_path, capsys):
    # From c ~ 10.25 on u_bar rounds to c; eta_solitary reads u_bar / w.
    assert main(["classify", "--c", "12", "--delta", "0.5", "--epsilon", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["eta_solitary"] < np.inf
    out = tmp_path / "wide.csv"
    assert main(["speed-amplitude", "--c-min", "1.1", "--c-max", "20", "--n", "50",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert np.all(np.isfinite(rows["eta_solitary"]))
    assert np.all(np.diff(rows["eta_solitary"]) > 0.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["speed-amplitude", "--c-min", "0.9", "--c-max", "1.4", "--out", "x.csv"],
        ["speed-amplitude", "--c-min", "1.4", "--c-max", "1.2", "--out", "x.csv"],
        ["speed-amplitude", "--c-min", "1.1", "--c-max", "1.4", "--n", "1",
         "--out", "x.csv"],
        ["speed-amplitude", "--c-min", "1.1", "--c-max", "inf", "--out", "x.csv"],
    ],
)
def test_speed_amplitude_rejects_bad_ranges(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


# ---- evolve ------------------------------------------------------------


def test_evolve_writes_snapshots_and_manifests(tmp_path, capsys):
    conf = write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["evolve", "--config", conf, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "plot.gp",
        "snapshot_000.csv", "snapshot_000.json",
        "snapshot_001.csv", "snapshot_001.json",
        "snapshot_002.csv", "snapshot_002.json",
    ]
    manifest = json.loads((out / "snapshot_002.json").read_text())
    assert manifest["system"] == "peregrine-dissipative"
    assert manifest["t"] == pytest.approx(6.0, abs=1e-9)
    data = np.genfromtxt(out / "snapshot_000.csv", delimiter=",", names=True)
    assert data["eta"][0] == pytest.approx(0.5, abs=1e-12)
    plot = (out / "plot.gp").read_text()
    assert "snapshot_002.csv" in plot


def test_evolve_reference_runs_shallow_water(tmp_path, capsys):
    conf = write_small_config(tmp_path)
    out = tmp_path / "out"
    assert main(["evolve", "--config", conf, "--out-dir", str(out),
                 "--reference", "shallow-water"]) == 0
    capsys.readouterr()
    ref = json.loads((out / "reference_001.json").read_text())
    assert ref["system"] == "shallow-water"
    assert ref["delta"] == 0.0
    assert ref["epsilon"] == 0.0


def test_evolve_is_byte_deterministic(tmp_path, capsys):
    # Every file of a rerun, the shallow-water reference's included.
    conf = write_small_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["evolve", "--config", conf, "--out-dir", str(out),
                     "--reference", "shallow-water"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert {"plot.gp", "snapshot_002.csv", "snapshot_002.json",
            "reference_002.csv", "reference_002.json"} <= set(names)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_evolve_failing_reference_leaves_no_directory(tmp_path, capsys, monkeypatch):
    # The reference run fails at its first step, after every snapshot of
    # the first run and the reference's t = 0 one are written: all are
    # removed again, and --out-dir with them.
    step = bore_lab.pde.step
    calls = []

    def step_or_fail(state, config):
        if config.system.value not in calls:
            calls.append(config.system.value)
        if config.system is SystemKind.SHALLOW_WATER:
            raise NumericsError("reference run failed")
        return step(state, config)

    monkeypatch.setattr(bore_lab.pde, "step", step_or_fail)
    conf = write_small_config(tmp_path)
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o"),
                 "--reference", "shallow-water"]) == 3
    assert "reference run failed" in capsys.readouterr().err
    assert calls == ["peregrine-dissipative", "shallow-water"]
    assert not (tmp_path / "o").exists()


def test_evolve_streams_the_files_evolve_snapshots_give(tmp_path, capsys):
    # Two positions share step 0: each gets its own files of one state.
    text = SMALL_RUN.replace("snapshot_times = 0,3,6", "snapshot_times = 0,0,3,6")
    conf = write_small_config(tmp_path, text)
    out, expected = tmp_path / "out", tmp_path / "expected"
    assert main(["evolve", "--config", conf, "--out-dir", str(out),
                 "--reference", "shallow-water"]) == 0
    capsys.readouterr()
    config = load_config(conf)
    ref_config = replace(config, system=SystemKind.SHALLOW_WATER, delta=0.0, epsilon=0.0)
    expected.mkdir()
    for prefix, run_config in (("snapshot", config), ("reference", ref_config)):
        for i, snap in enumerate(evolve(run_config)):
            write_snapshot_csv(snap, config.grid, expected / f"{prefix}_{i:03d}.csv")
            write_snapshot_manifest(run_config, snap, expected / f"{prefix}_{i:03d}.json")
    names = sorted(p.name for p in expected.iterdir())
    assert len(names) == 16
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["plot.gp"])
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name


def test_evolve_memory_does_not_grow_with_snapshot_times(tmp_path, capsys, monkeypatch):
    # Each snapshot is handed to the writers when the march reaches it and
    # dropped: 40 snapshot times, in both runs, cost less than one snapshot
    # more than 2 do, where keeping them would cost 2 x 38 snapshots more.
    # The writers are stand-ins that keep nothing, so that the peak is what
    # the command holds (the test above checks the real files).  What does
    # grow, the map from steps to positions and the parsed times, read
    # under 2 kB, against 51 kB for one snapshot on these 3200 cells.
    calls = [0]

    def count(*args):
        calls[0] += 1

    monkeypatch.setattr(bore_lab.cli, "write_snapshot_csv", count)
    monkeypatch.setattr(bore_lab.cli, "write_snapshot_manifest", count)
    text = (SMALL_RUN.replace("dx = 0.25", "dx = 0.0625").replace("dt = 0.025", "dt = 0.0125")
            .replace("t_end = 6", "t_end = 0.5"))
    peaks = []
    for count_times in (2, 40):
        times = ",".join(f"{0.5 * i / (count_times - 1):.17g}" for i in range(count_times))
        conf = write_small_config(
            tmp_path, text.replace("snapshot_times = 0,3,6", f"snapshot_times = {times}"))
        argv = ["evolve", "--config", conf, "--out-dir", str(tmp_path / f"o{count_times}"),
                "--reference", "shallow-water"]
        if not peaks:
            assert main(argv) == 0  # modules loaded and parser built before tracing
        calls[0] = 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert calls[0] == 2 * 2 * count_times
    capsys.readouterr()
    n = load_config(conf).grid.n
    assert n == 3200
    assert abs(peaks[1] - peaks[0]) < 2 * n * 8, peaks


def test_evolve_horizon_check(tmp_path, capsys):
    text = SMALL_RUN.replace("t_end = 6", "t_end = 40")
    text = text.replace("snapshot_times = 0,3,6", "snapshot_times = 40")
    conf = write_small_config(tmp_path, text)
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "t_end" in err
    # The horizon is measured from x = 0, so the domain must straddle it.
    conf = write_small_config(tmp_path, with_value(SMALL_RUN, "x_min", "10"))
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o")]) == 2
    assert "must straddle" in capsys.readouterr().err


def test_evolve_cfl_check(tmp_path, capsys):
    conf = write_small_config(tmp_path, SMALL_RUN.replace("dt = 0.025", "dt = 0.5"))
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o")]) == 2
    assert "advective bound" in capsys.readouterr().err


def test_evolve_damping_bound(tmp_path, capsys):
    # At dt = 0.05 RK4's damping limit lies between epsilon = 50 and 60;
    # before the config-time check epsilon = 60 ran and exited 3 at t = 2.1.
    text = SMALL_RUN.replace("dt = 0.025", "dt = 0.05")
    conf = write_small_config(tmp_path, text.replace("epsilon = 0.1", "epsilon = 50"))
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "a")]) == 0
    conf = write_small_config(tmp_path, text.replace("epsilon = 0.1", "epsilon = 60"))
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "b")]) == 2
    assert "RK4 damping bound" in capsys.readouterr().err


# dt passes the initial screen; the crests behind the front break the
# bound near t = 1.7 (see test_pde's check at every step).
MID_RUN_BREACH = (SMALL_RUN.replace("dx = 0.25", "dx = 0.5\nboundary = reflective")
                  .replace("dt = 0.025", "dt = 0.19").replace("t_end = 6", "t_end = 30")
                  .replace("snapshot_times = 0,3,6", "snapshot_times = 30"))


def test_evolve_cfl_breach_mid_run_exits_3(tmp_path, capsys):
    conf = write_small_config(tmp_path, MID_RUN_BREACH)
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o")]) == 3
    assert "fell below dt = 0.19" in capsys.readouterr().err


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
def test_evolve_breach_after_a_written_snapshot_removes_it(tmp_path, capsys, monkeypatch,
                                                           existing):
    # The t = 0 snapshot is written before the breach near t = 1.7.  The
    # failed run removes it, and the directories it made (here two levels);
    # a directory that was there stays, with what it held.
    conf = write_small_config(
        tmp_path, MID_RUN_BREACH.replace("snapshot_times = 30", "snapshot_times = 0,30"))
    write = bore_lab.cli.write_snapshot_csv
    written = []

    def write_and_record(state, grid, path):
        written.append(state.t)
        write(state, grid, path)

    monkeypatch.setattr(bore_lab.cli, "write_snapshot_csv", write_and_record)
    out = tmp_path / "new" / "o"
    if existing:
        out.mkdir(parents=True)
        (out / "notes.txt").write_text("unrelated\n")
    assert main(["evolve", "--config", conf, "--out-dir", str(out)]) == 3
    assert "fell below dt = 0.19" in capsys.readouterr().err
    assert written == [0.0]
    if existing:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "unrelated\n"
    else:
        assert not (tmp_path / "new").exists()


def test_evolve_rejects_profile_config(tmp_path, capsys):
    conf = tmp_path / "wave.conf"
    conf.write_text("preset = fig2\n")
    assert main(["evolve", "--config", str(conf),
                 "--out-dir", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_evolve_missing_config_file(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path / "absent.conf"),
                 "--out-dir", str(tmp_path / "o")]) == 2
    capsys.readouterr()


# ---- error-study -------------------------------------------------------


def test_error_study_refusal_leaves_no_directory(tmp_path, capsys):
    # dt 4 epsilon / (dx**2 + 4 delta) = 12.3 exceeds the RK4 damping bound.
    conf = write_small_config(tmp_path, STUDY_RUN)
    rc = main(["error-study", "--config", conf, "--epsilons", "500",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "RK4 damping bound" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_error_study_outputs_and_rerun_identity(tmp_path, capsys):
    conf = write_small_config(tmp_path, STUDY_RUN)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["error-study", "--config", conf, "--epsilons", "0.1,0.05",
                     "--out-dir", str(out)]) == 0
    capsys.readouterr()
    for name in ("error_000.csv", "error_001.csv", "fits.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    fits = json.loads((a / "fits.json").read_text())
    assert [f["epsilon"] for f in fits] == [0.1, 0.05]
    assert all(f["K"] > 0.0 for f in fits)
    assert 0.5 < fits[0]["K"] / fits[1]["K"] < 2.0
    data = np.genfromtxt(a / "error_000.csv", delimiter=",", names=True)
    assert data["t"].shape == (4,)
    assert np.all(data["y"] > 0.0)


def test_error_study_rejects_workers_flag(tmp_path, capsys):
    # All runs advance together in one process; there is no worker count.
    conf = write_small_config(tmp_path, STUDY_RUN)
    assert main(["error-study", "--config", conf, "--epsilons", "0.1",
                 "--out-dir", str(tmp_path / "o"), "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("epsilons", [",", "0.1,-0.2", "0.1,abc"])
def test_error_study_rejects_bad_epsilons(tmp_path, capsys, epsilons):
    conf = write_small_config(tmp_path, STUDY_RUN)
    assert main(["error-study", "--config", conf, "--epsilons", epsilons,
                 "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    if epsilons == ",":
        assert "at least one epsilon" in err
    assert not (tmp_path / "o").exists()


# ---- non-finite and out-of-range numbers --------------------------------


def with_value(text, key, value):
    """Config text with the value of key replaced."""
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    return "\n".join(lines) + "\n"


EVOLVE = ["evolve", "--config", "{config}", "--out-dir", "{out}"]
PROFILE_FIG2 = ["profile", "--preset", "fig2", "--out-dir", "{out}"]


@pytest.mark.parametrize(
    "argv, config, name",
    [
        pytest.param(["classify", "--c", "1.3", "--delta", "0.2", "--epsilon", "inf"],
                     SMALL_RUN, "epsilon", id="classify-epsilon-inf"),
        pytest.param(["profile", "--c", "1.3", "--delta", "inf", "--epsilon", "1",
                      "--out-dir", "{out}"], SMALL_RUN, "delta", id="profile-delta-inf"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "x_min", "-inf"), "x_min",
                     id="evolve-x_min-inf"),
        pytest.param(EVOLVE, with_value(with_value(SMALL_RUN, "x_min", "-1e12"), "x_max", "1e12"),
                     "n <= 1048576 (2**20)", id="evolve-8e12-cells"),
        # (x_max - x_min) / dx overflows to inf, which has no int.
        pytest.param(EVOLVE, with_value(with_value(with_value(SMALL_RUN, "x_min", "-400"),
                                                   "x_max", "400"), "dx", "1e-320"),
                     "n <= 1048576 (2**20)", id="evolve-dx-1e-320"),
        pytest.param(EVOLVE, with_value(with_value(SMALL_RUN, "x_min", "-1e308"), "x_max", "1e308"),
                     "n <= 1048576 (2**20)", id="evolve-1e308-domain"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "epsilon", "nan"), "epsilon",
                     id="evolve-epsilon-nan"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "epsilon", "inf"), "epsilon",
                     id="evolve-epsilon-inf"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "delta", "nan"), "delta",
                     id="evolve-delta-nan"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "eta_left", "nan"), "eta_left",
                     id="evolve-eta_left-nan"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "dt", "1e-9"), "cell-step budget",
                     id="evolve-dt-1e-9"),
        pytest.param(["error-study", "--config", "{config}", "--epsilons", "nan,0.1",
                      "--out-dir", "{out}"], STUDY_RUN, "epsilons",
                     id="error-study-epsilon-nan"),
        pytest.param(PROFILE_FIG2 + ["--tail-tol", "0"], SMALL_RUN, "tail_tol",
                     id="profile-tail-tol-0"),
        pytest.param(PROFILE_FIG2 + ["--tail-tol", "nan"], SMALL_RUN, "tail_tol",
                     id="profile-tail-tol-nan"),
        pytest.param(PROFILE_FIG2 + ["--max-span", "nan"], SMALL_RUN, "max_span",
                     id="profile-max-span-nan"),
    ],
)
def test_non_finite_or_out_of_range_numbers_exit_2(argv, config, name, tmp_path, capsys):
    conf = write_small_config(tmp_path, config)
    argv = [a.format(config=conf, out=tmp_path / "out") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert name in captured.err
    assert captured.out == ""


# Finite inputs that the closed forms cannot carry: the tail gap c - u_tail
# rounds to 0 from c ~ 1e9 and overflows with c**2 past c ~ 1e154, the
# profile's slowest rate underflows to 0, and classify's damping test or a
# tail rate overflows to inf, which is not JSON (at delta = 1e308 the
# threshold of critical_epsilon too).  At rtol = 1e300 the orbit grows
# until the sweep's stop norm overflows, which must warn nothing before
# the non-finite state is refused.
CLASSIFY, PROFILE = ["classify", "--c"], ["profile", "--out-dir", "{out}", "--c"]


@pytest.mark.parametrize(
    "argv, code, name",
    [
        pytest.param(CLASSIFY + ["1e9", "--delta", "0.2", "--epsilon", "1"], 2,
                     "c = 1000000000.0", id="classify-c-1e9"),
        pytest.param(PROFILE + ["1e10", "--delta", "0.2", "--epsilon", "1"], 2,
                     "c = 10000000000.0", id="profile-c-1e10"),
        pytest.param(["speed-amplitude", "--c-min", "2", "--c-max", "1e10", "--n", "3",
                      "--out", "{out}"], 2, "c = 5000000001.0", id="speed-amplitude-c-max-1e10"),
        pytest.param(PROFILE + ["1.3", "--delta", "0.2", "--epsilon", "1e160"], 3,
                     "epsilon = 1e+160", id="profile-epsilon-1e160"),
        pytest.param(PROFILE + ["1.3", "--delta", "1e308", "--epsilon", "1"], 3,
                     "delta = 1e+308", id="profile-delta-1e308"),
        pytest.param(CLASSIFY + ["1.3", "--delta", "0.2", "--epsilon", "1e300"], 3,
                     "epsilon = 1e+300", id="classify-epsilon-1e300"),
        pytest.param(CLASSIFY + ["1.3", "--delta", "1e-320", "--epsilon", "1"], 3,
                     "delta = 1e-320", id="classify-delta-1e-320"),
        pytest.param(PROFILE + ["1e200", "--delta", "0.2", "--epsilon", "1"], 2,
                     "c = 1e+200", id="profile-c-1e200"),
        pytest.param(PROFILE + ["1.3", "--delta", "0.2", "--epsilon", "1.2", "--rtol", "1e300"], 3,
                     "non-finite state", id="profile-rtol-1e300"),
        pytest.param(CLASSIFY + ["1.3", "--delta", "1e308", "--epsilon", "1"], 3,
                     "delta = 1e+308", id="classify-delta-1e308"),
    ],
)
def test_extreme_finite_numbers_are_refused(argv, code, name, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([a.format(out=out) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert name in captured.err
    assert captured.out == ""
    assert not out.exists()


# Over the memory budget: 2**20 cells with 60 snapshots (below), and an
# error study of 20001 rows, which holds no snapshot, over 80 steps; both
# stay inside the cell-step budget.
MANY_SNAPSHOTS = """\
kind = evolution
system = peregrine-dissipative
delta = 1
epsilon = 0.1
ic = riemann
eta_left = 0.5
x_min = -8
x_max = 8
dx = 1.52587890625e-05
dt = 5e-6
t_end = 0.006
snapshot_times = """ + ",".join(f"{i}e-4" for i in range(60)) + "\n"


@pytest.mark.parametrize(
    "argv, config, cap",
    [
        pytest.param(["speed-amplitude", "--c-min", "1.1", "--c-max", "2", "--n", "100001",
                      "--out", "{out}.csv"], SMALL_RUN, "100000 rows (the row cap)",
                     id="speed-amplitude-rows"),
        pytest.param(EVOLVE, MANY_SNAPSHOTS, "memory budget", id="evolve-snapshot-bytes"),
        pytest.param(["error-study", "--config", "{config}",
                      "--epsilons", ",".join(["0.1"] * 20000), "--out-dir", "{out}"],
                     with_value(STUDY_RUN, "dt", "0.05"), "memory budget",
                     id="error-study-batch-rows"),
    ],
)
def test_over_budget_inputs_exit_2_at_once(argv, config, cap, tmp_path, capsys):
    conf = write_small_config(tmp_path, config)
    argv = [a.format(config=conf, out=tmp_path / "out") for a in argv]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert cap in capsys.readouterr().err


# ---- overlay -----------------------------------------------------------


def station_trace(profile_dir, c):
    raw = np.genfromtxt(profile_dir / "profile.csv", delimiter=",", names=True)
    t = -raw["xi"][::-1] / c
    eta = raw["eta"][::-1]
    grid = np.linspace(t[0], t[-1], 400)
    return grid, np.interp(grid, t, eta)


def write_gauge(path, t, eta):
    with open(path, "w") as fh:
        fh.write("t,eta\n")
        for a, b in zip(t, eta):
            fh.write(f"{a:.17g},{b:.17g}\n")


def test_overlay_recovers_time_shift(profile_dir, tmp_path, capsys):
    t, eta = station_trace(profile_dir, 1.3)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t + 7.5, eta)
    report_path = tmp_path / "report.json"
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(gauge), "--out", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["shift"] == pytest.approx(7.5, abs=0.05)
    assert report["rms_misfit"] < 1e-4
    assert abs(report["crest_difference"]) < 1e-2


def test_overlay_noise_floor(profile_dir, tmp_path, capsys):
    t, eta = station_trace(profile_dir, 1.3)
    rng = np.random.default_rng(11)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t + 3.0, eta + 0.01 * rng.standard_normal(t.size))
    report_path = tmp_path / "report.json"
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(gauge), "--out", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert 0.005 < report["rms_misfit"] < 0.02


def test_overlay_malformed_csv_names_line(profile_dir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,eta\n0,0\n1,0,9\n")
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        "t,eta\n" + "".join(f"{i},{0.1 * i}\n" for i in range(5)),  # too short
        "t,eta\n" + "".join(f"{10 - i},{0.1 * i}\n" for i in range(12)),  # decreasing
        "t,eta\n" + "".join(f"{i},nan\n" for i in range(12)),  # non-finite
        # flat: no front to align on, so the shifted profile ends where the
        # gauge begins and the two barely overlap
        "t,eta\n" + "".join(f"{i},0\n" for i in range(12)),
    ],
)
def test_overlay_rejects_bad_gauge_data(profile_dir, tmp_path, capsys, content):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(bad), "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def negate_eta(line):
    head, eta = line.rsplit(",", 1)
    return f"{head},{-float(eta)!r}"


# Each edit of the fig2 profile.csv (header first, then data rows) and
# what the refusal must name: the line at fault, or the row count.
BAD_PROFILES = {
    "eta-cell-oops": (
        lambda lines: lines[:100] + [lines[100].rsplit(",", 1)[0] + ",oops"] + lines[101:],
        "line 101",
    ),
    "header-only": (lambda lines: lines[:1], "got 0"),
    "one-data-row": (lambda lines: lines[:2], "got 1"),
    "rows-reversed": (lambda lines: lines[:1] + lines[:0:-1], "line 3"),
    "no-header": (lambda lines: lines[1:], "line 1"),
    "eta-negated": (lambda lines: lines[:1] + [negate_eta(line) for line in lines[1:]],
                    "no finite Froude number"),
}


@pytest.mark.parametrize("edit, needle", BAD_PROFILES.values(), ids=BAD_PROFILES.keys())
def test_overlay_rejects_bad_profile_csv(profile_dir, tmp_path, capsys, edit, needle):
    t, eta = station_trace(profile_dir, 1.3)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t, eta)
    lines = (profile_dir / "profile.csv").read_text().splitlines()
    bad = tmp_path / "profile.csv"
    bad.write_text("\n".join(edit(lines)) + "\n")
    report = tmp_path / "r.json"
    assert main(["overlay", "--profile", str(bad), "--data", str(gauge),
                 "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and needle in err
    assert not report.exists()


# Gauges (rows t, eta) whose common sampling would resample a series to
# 1e11 points, or the profile to none; each once failed a huge allocation
# or inside np.gradient.
OVERSIZED_GAUGES = {
    "sampled-every-1e-9": (np.arange(12) * 1e-9, np.linspace(0.0, 0.1, 12)),
    "spanning-1e12": (np.linspace(0.0, 1e12, 12), np.linspace(0.0, 0.1, 12)),
}


@pytest.mark.parametrize("gauge", OVERSIZED_GAUGES.values(), ids=OVERSIZED_GAUGES.keys())
def test_overlay_refuses_an_oversized_alignment(profile_dir, tmp_path, capsys, gauge):
    path = tmp_path / "gauge.csv"
    write_gauge(path, *gauge)
    report = tmp_path / "r.json"
    start = time.perf_counter()
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(path), "--out", str(report)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "MAX_ALIGN_SAMPLES = 131072" in capsys.readouterr().err
    assert not report.exists()


def test_overlay_takes_no_speed_flag(profile_dir, tmp_path, capsys):
    t, eta = station_trace(profile_dir, 1.3)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t, eta)
    report = tmp_path / "r.json"
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(gauge), "--c", "1.3", "--out", str(report)]) == 2
    assert "unrecognized arguments: --c 1.3" in capsys.readouterr().err
    assert not report.exists()


def test_overlay_aligns_a_profile_past_65536_samples(tmp_path, capsys):
    # (8, 0.5, 0.3) sweeps 75,960 samples: resampled at half its own row
    # gap, the profile alone would exceed MAX_ALIGN_SAMPLES.
    out = tmp_path / "c8"
    assert main(["profile", "--c", "8", "--delta", "0.5", "--epsilon", "0.3",
                 "--out-dir", str(out)]) == 0
    t, eta = station_trace(out, 8.0)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t + 7.5, eta)
    report_path = tmp_path / "report.json"
    assert main(["overlay", "--profile", str(out / "profile.csv"),
                 "--data", str(gauge), "--out", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["froude"] == 8.0
    assert abs(report["shift"] - 7.5) <= 1e-3 * (t[1] - t[0])


# ---- preset-export -----------------------------------------------------


def test_preset_export_lists_all_presets(capsys):
    assert main(["preset-export"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1", "fig2", "fig5", "fig6-a", "fig6-b", "fig6-c",
                 "fig9", "sec4-riemann", "sec4-gaussian"):
        assert name in out


def test_preset_export_profile_round_trip(tmp_path, capsys):
    assert main(["preset-export", "--name", "fig2",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    params = load_config(tmp_path / "fig2.conf")
    assert params == WaveParams(1.3, 0.2, 1.2)


def test_preset_export_evolution_round_trip(tmp_path, capsys):
    assert main(["preset-export", "--name", "sec4-gaussian",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    cfg = load_config(tmp_path / "sec4-gaussian.conf")
    assert cfg.grid.n == 6400
    assert cfg.epsilon == 0.1


def test_preset_export_potential_artifacts(tmp_path, capsys):
    assert main(["preset-export", "--name", "fig1",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["fig1.conf", "potential.csv", "potential.gp"]
    rows = np.genfromtxt(tmp_path / "potential.csv", delimiter=",", names=True)
    # the landscape changes sign: a well below zero and a rise past the rim
    assert rows["G"].min() < 0.0 < rows["G"].max()
    i0 = np.argmin(np.abs(rows["u"]))
    assert abs(rows["G"][i0]) < 1e-3


def test_preset_export_unknown_name(capsys):
    assert main(["preset-export", "--name", "fig99"]) == 2
    capsys.readouterr()


# ---- parser-level behavior ----------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert main(["summon"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    # main parses with one parser per process; a refused call, --help and a
    # run with a flag set leave nothing behind for the next call.
    assert main(["summon"]) == 2
    assert main(["--help"]) == 0
    assert main(["profile", "--preset", "fig2", "--rtol", "1e-9",
                 "--out-dir", str(tmp_path / "tight")]) == 0
    assert main(["profile", "--preset", "fig2", "--out-dir", str(tmp_path / "cached")]) == 0
    assert bore_lab.cli._parser() is bore_lab.cli._parser()
    fresh = ["profile", "--preset", "fig2", "--out-dir", str(tmp_path / "fresh")]
    args = bore_lab.cli.build_parser().parse_args(fresh)
    assert args.func(args) == 0
    capsys.readouterr()
    tight = json.loads((tmp_path / "tight" / "shape.json").read_text())["solver"]
    default = json.loads((tmp_path / "fresh" / "shape.json").read_text())["solver"]
    assert tight != default  # the --rtol run did differ
    for name in ("profile.csv", "shape.json"):
        cached = (tmp_path / "cached" / name).read_bytes()
        assert cached == (tmp_path / "fresh" / name).read_bytes()

"""End-to-end checks of the command-line surface: exit codes, file
outputs, and byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bore_lab
from bore_lab.cli import main
from bore_lab.config import load_config
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


def test_classify_is_deterministic(capsys):
    main(["classify", "--preset", "fig2"])
    first = capsys.readouterr().out
    main(["classify", "--preset", "fig2"])
    assert capsys.readouterr().out == first


def test_python_dash_m_runs_the_cli():
    src = str(Path(bore_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-m", "bore_lab", "classify", "--preset", "fig2"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["kind"]


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


def test_profile_exhausted_span_exits_3(tmp_path, capsys):
    rc = main(["profile", "--preset", "fig2", "--max-span", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "max_span" in capsys.readouterr().err


def test_profile_records_solver_block(profile_dir):
    solver = json.loads((profile_dir / "shape.json").read_text())["solver"]
    assert set(solver) == {"method", "steps", "rhs_evals", "jac_evals", "samples",
                           "xi_span", "seed_offset", "stop"}
    rows = (profile_dir / "profile.csv").read_text().splitlines()[1:]
    assert solver["samples"] == len(rows)
    assert solver["method"] == "LSODA"
    assert solver["stop"] == "tail_tol"
    assert solver["xi_span"] == [float(rows[0].split(",")[0]),
                                 float(rows[-1].split(",")[0])]


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
    expected_bar = surface_elevation(solitary_amplitude(1.2), 1.2)
    assert rows["eta_solitary"][i] == pytest.approx(expected_bar, rel=1e-12)
    assert np.all(rows["eta_solitary"] > rows["eta_tail"])


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
    conf = write_small_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["evolve", "--config", conf, "--out-dir", str(a)]) == 0
    assert main(["evolve", "--config", conf, "--out-dir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "snapshot_002.csv").read_bytes() == (b / "snapshot_002.csv").read_bytes()


def test_evolve_horizon_check(tmp_path, capsys):
    text = SMALL_RUN.replace("t_end = 6", "t_end = 40")
    text = text.replace("snapshot_times = 0,3,6", "snapshot_times = 40")
    conf = write_small_config(tmp_path, text)
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "t_end" in err


def test_evolve_cfl_check(tmp_path, capsys):
    conf = write_small_config(tmp_path, SMALL_RUN.replace("dt = 0.025", "dt = 0.5"))
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o")]) == 2
    assert "advective bound" in capsys.readouterr().err


def test_evolve_cfl_breach_mid_run_exits_3(tmp_path, capsys):
    # dt passes the initial screen; the crests behind the front break the
    # bound near t = 1.7 (see test_pde's check at every step).
    text = (SMALL_RUN.replace("dx = 0.25", "dx = 0.5\nboundary = reflective")
            .replace("dt = 0.025", "dt = 0.19").replace("t_end = 6", "t_end = 30")
            .replace("snapshot_times = 0,3,6", "snapshot_times = 30"))
    conf = write_small_config(tmp_path, text)
    assert main(["evolve", "--config", conf, "--out-dir", str(tmp_path / "o")]) == 3
    assert "fell below dt = 0.19" in capsys.readouterr().err


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


STUDY_RUN = SMALL_RUN.replace("t_end = 6", "t_end = 4").replace(
    "snapshot_times = 0,3,6", "snapshot_times = 1,2,3,4"
)


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
    capsys.readouterr()


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
        pytest.param(EVOLVE, with_value(SMALL_RUN, "epsilon", "nan"), "epsilon",
                     id="evolve-epsilon-nan"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "epsilon", "inf"), "epsilon",
                     id="evolve-epsilon-inf"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "delta", "nan"), "delta",
                     id="evolve-delta-nan"),
        pytest.param(EVOLVE, with_value(SMALL_RUN, "eta_left", "nan"), "eta_left",
                     id="evolve-eta_left-nan"),
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
                 "--data", str(gauge), "--c", "1.3",
                 "--out", str(report_path)]) == 0
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
                 "--data", str(gauge), "--c", "1.3",
                 "--out", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert 0.005 < report["rms_misfit"] < 0.02


def test_overlay_mismatched_speed_reports_not_fails(profile_dir, tmp_path, capsys):
    t, eta = station_trace(profile_dir, 1.3)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t, eta)
    report_path = tmp_path / "report.json"
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(gauge), "--c", "2.6",
                 "--out", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report["rms_misfit"] > 10.0 * 1e-4


def test_overlay_malformed_csv_names_line(profile_dir, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,eta\n0,0\n1,0,9\n")
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(bad), "--c", "1.3",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        "t,eta\n" + "".join(f"{i},{0.1 * i}\n" for i in range(5)),  # too short
        "t,eta\n" + "".join(f"{10 - i},{0.1 * i}\n" for i in range(12)),  # decreasing
        "t,eta\n" + "".join(f"{i},nan\n" for i in range(12)),  # non-finite
    ],
)
def test_overlay_rejects_bad_gauge_data(profile_dir, tmp_path, capsys, content):
    bad = tmp_path / "bad.csv"
    bad.write_text(content)
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(bad), "--c", "1.3",
                 "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_overlay_rejects_subcritical_speed(profile_dir, tmp_path, capsys):
    t, eta = station_trace(profile_dir, 1.3)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t, eta)
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(gauge), "--c", "0.9",
                 "--out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("c", ["inf", "nan"])
def test_overlay_rejects_non_finite_speed(profile_dir, tmp_path, capsys, c):
    t, eta = station_trace(profile_dir, 1.3)
    gauge = tmp_path / "gauge.csv"
    write_gauge(gauge, t, eta)
    assert main(["overlay", "--profile", str(profile_dir / "profile.csv"),
                 "--data", str(gauge), "--c", c, "--out", str(tmp_path / "r.json")]) == 2
    assert "Froude number must be finite" in capsys.readouterr().err


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

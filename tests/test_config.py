"""Flat config format: strict vocabulary, line-numbered errors, preset
expansion, and lossless write/read round trips."""

import math

import pytest

from bore_lab.config import (
    PRESETS,
    build_run_config,
    build_wave_params,
    load_config,
    parse_config_text,
    preset_note,
    preset_pairs,
    write_config,
)
from bore_lab.errors import ConfigError
from bore_lab.pde import Gaussian, RunConfig, SmoothedRiemann
from bore_lab.waveform import WaveParams


# ---- parsing -----------------------------------------------------------


def test_parse_basic_pairs():
    text = "# a comment\n\nc = 1.3\n  delta=0.2  \nepsilon = 1.2\n"
    assert parse_config_text(text) == {"c": "1.3", "delta": "0.2", "epsilon": "1.2"}


def test_parse_empty_text_gives_empty_mapping():
    assert parse_config_text("# nothing but comments\n\n") == {}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("c 1.3\n", "line 1"),
        ("c = 1.3\nc = 1.4\n", "line 2"),
        ("c = 1.3\nmystery = 4\n", "line 2"),
        ("= 1.3\n", "line 1"),
        ("c =\n", "line 1"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(text)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text("mystery = 4\n")


def test_unknown_preset_lists_known_names():
    with pytest.raises(ConfigError, match="fig2"):
        parse_config_text("preset = nope\n")


def test_preset_expands_and_explicit_keys_win():
    pairs = parse_config_text("preset = fig2\nepsilon = 0.9\n")
    assert pairs["kind"] == "profile"
    assert float(pairs["c"]) == 1.3
    assert float(pairs["epsilon"]) == 0.9


def test_preset_position_does_not_matter():
    first = parse_config_text("preset = fig2\nepsilon = 0.9\n")
    second = parse_config_text("epsilon = 0.9\npreset = fig2\n")
    assert first == second


# ---- builders ----------------------------------------------------------


def test_build_wave_params_happy_path():
    params = build_wave_params({"kind": "profile", "c": "1.3", "delta": "0.2",
                                "epsilon": "1.2"})
    assert params == WaveParams(1.3, 0.2, 1.2)


@pytest.mark.parametrize(
    "pairs, fragment",
    [
        ({"c": "1.3", "delta": "0.2"}, "epsilon"),
        ({"c": "fast", "delta": "0.2", "epsilon": "1.2"}, "not a number"),
        ({"c": "1.3", "delta": "0.2", "epsilon": "1.2", "dt": "0.025"}, "dt"),
        ({"c": "inf", "delta": "0.2", "epsilon": "1.2"}, "key 'c' must be finite"),
    ],
)
def test_build_wave_params_errors(pairs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        build_wave_params(pairs)


def evolution_pairs(**overrides):
    pairs = {
        "system": "peregrine-dissipative",
        "delta": "1",
        "epsilon": "0.1",
        "ic": "riemann",
        "eta_left": "0.5",
        "t_end": "60",
    }
    pairs.update({k: str(v) for k, v in overrides.items()})
    return pairs


def test_build_run_config_applies_defaults():
    cfg = build_run_config(evolution_pairs())
    assert cfg.grid.x_min == -800.0
    assert cfg.grid.x_max == 800.0
    assert cfg.grid.dx == pytest.approx(0.25, rel=1e-15)
    assert cfg.grid.n == 6400
    assert cfg.grid.boundary.value == "periodic"
    assert cfg.dt == 0.025
    assert cfg.ic == SmoothedRiemann(0.5, 2.0)
    assert cfg.snapshot_times == ()


def test_build_run_config_gaussian_and_snapshots():
    pairs = evolution_pairs(ic="gaussian", amplitude="1.0", width="10",
                            snapshot_times="0, 15,30", t_end="40")
    del pairs["eta_left"]
    cfg = build_run_config(pairs)
    assert cfg.ic == Gaussian(1.0, 10.0)
    assert cfg.snapshot_times == (0.0, 15.0, 30.0)


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(system="navier-stokes"), "unknown system"),
        (dict(dx="0.3"), "does not divide"),
        (dict(dx="-0.25"), "dx"),
        (dict(ic="soliton"), "unknown ic"),
        (dict(snapshot_times="1;2"), "snapshot_times"),
        (dict(boundary="absorbing"), "absorbing"),
        (dict(amplitude="1.0"), "amplitude"),  # riemann run, stray gaussian key
        (dict(x_min="-inf"), "key 'x_min' must be finite"),
        (dict(dx="nan"), "key 'dx' must be finite"),
        (dict(dt="inf"), "key 'dt' must be finite"),
        (dict(t_end="nan"), "key 't_end' must be finite"),
        (dict(delta="nan"), "key 'delta' must be finite"),
        (dict(epsilon="inf"), "key 'epsilon' must be finite"),
        (dict(eta_left="nan"), "key 'eta_left' must be finite"),
    ],
)
def test_build_run_config_errors(overrides, fragment):
    with pytest.raises((ConfigError, ValueError), match=fragment):
        build_run_config(evolution_pairs(**overrides))


def test_build_run_config_requires_ic_and_t_end():
    pairs = evolution_pairs()
    del pairs["ic"], pairs["eta_left"]
    with pytest.raises(ConfigError, match="ic"):
        build_run_config(pairs)
    pairs = evolution_pairs()
    del pairs["t_end"]
    with pytest.raises(ConfigError, match="t_end"):
        build_run_config(pairs)


# ---- file round trips and presets ---------------------------------------


def test_write_then_load_profile_config(tmp_path):
    path = tmp_path / "wave.conf"
    write_config({"kind": "profile", "c": 1.11, "delta": 1.0 / 3.0,
                  "epsilon": 0.06}, path)
    params = load_config(path)
    assert isinstance(params, WaveParams)
    assert params.delta == 1.0 / 3.0  # 17 digits keep the float exact


def test_write_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="mystery"):
        write_config({"mystery": 1.0}, tmp_path / "bad.conf")


def test_load_config_dispatches_on_keys(tmp_path):
    prof = tmp_path / "p.conf"
    prof.write_text("c = 1.3\ndelta = 0.2\nepsilon = 1.2\n")
    assert isinstance(load_config(prof), WaveParams)
    evo = tmp_path / "e.conf"
    write_config(dict(PRESETS["sec4-riemann"][0]), evo)
    assert isinstance(load_config(evo), RunConfig)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_every_preset_round_trips_losslessly(tmp_path, name):
    path = tmp_path / f"{name}.conf"
    pairs = preset_pairs(name)
    write_config(pairs, path)
    back = parse_config_text(path.read_text())
    for key, value in pairs.items():
        if isinstance(value, float):
            assert float(back[key]) == value
        else:
            assert back[key] == str(value)
    load_config(path)  # every preset builds a valid object
    assert preset_note(name)


def test_preset_inventory():
    profile_like = {n for n, (vals, _) in PRESETS.items()
                    if vals.get("kind") in ("profile", "potential")}
    evolution = set(PRESETS) - profile_like
    assert evolution == {"sec4-riemann", "sec4-gaussian"}
    assert {"fig1", "fig2", "fig5", "fig9"} <= profile_like


def test_preset_pairs_returns_a_copy():
    pairs = preset_pairs("fig2")
    pairs["c"] = 99.0
    assert preset_pairs("fig2")["c"] == 1.3


def build_preset(name):
    pairs = {k: str(v) for k, v in preset_pairs(name).items()}
    return build_run_config(pairs)


def test_sec4_presets_match_reported_setup():
    cfg = build_preset("sec4-riemann")
    assert cfg.delta == 1.0
    assert cfg.epsilon == 0.1
    assert cfg.grid.dx == pytest.approx(0.25, rel=1e-15)
    assert cfg.dt == 0.025
    assert cfg.t_end == 60.0
    assert cfg.snapshot_times == (0.0, 15.0, 30.0, 45.0, 60.0)
    gauss = build_preset("sec4-gaussian")
    assert gauss.ic == Gaussian(1.0, 10.0)

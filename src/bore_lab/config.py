"""Flat key=value config files and the named experiment presets.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored.  Keys are validated against a fixed vocabulary; anything else is
rejected with its line number.  A `preset` key expands to that preset's
pairs first, and explicit keys in the same file override the expansion.

Two config shapes exist.  Profile configs carry c/delta/epsilon (plus
optional integrator knobs) and load to WaveParams; evolution configs carry
a `system` key and load to a RunConfig.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple, Union

from .errors import ConfigError
from .pde import Gaussian, Grid, RunConfig, SmoothedRiemann, SystemKind
from .waveform import WaveParams

_PROFILE_KEYS = {"kind", "c", "delta", "epsilon"}
_EVOLUTION_KEYS = {
    "kind",
    "system",
    "delta",
    "epsilon",
    "x_min",
    "x_max",
    "dx",
    "boundary",
    "dt",
    "t_end",
    "snapshot_times",
    "ic",
    "eta_left",
    "ramp_width",
    "amplitude",
    "width",
}
_ALL_KEYS = _PROFILE_KEYS | _EVOLUTION_KEYS | {"preset"}

_THIRD = 1.0 / 3.0

# name -> (flat pairs, one-line note). Profile presets pin the traveling
# wave; evolution presets pin a full run.
PRESETS: Dict[str, Tuple[Dict[str, object], str]] = {
    "fig1": (
        {"kind": "potential", "c": 2.0, "delta": 0.5, "epsilon": 0.0},
        "potential landscape for a fast front (c = 2)",
    ),
    "fig2": (
        {"kind": "profile", "c": 1.3, "delta": 0.2, "epsilon": 1.2},
        "monotone regularized front, heavy damping",
    ),
    "fig5": (
        {"kind": "profile", "c": 1.11, "delta": _THIRD, "epsilon": 0.06},
        "weakly damped undular bore, slow flume speed",
    ),
    "fig6-a": (
        {"kind": "profile", "c": 1.081, "delta": _THIRD, "epsilon": 0.05},
        "undular bore, slowest of the three flume speeds",
    ),
    "fig6-b": (
        {"kind": "profile", "c": 1.104, "delta": _THIRD, "epsilon": 0.05},
        "undular bore, middle flume speed",
    ),
    "fig6-c": (
        {"kind": "profile", "c": 1.192, "delta": _THIRD, "epsilon": 0.05},
        "undular bore, fastest non-breaking flume speed",
    ),
    "fig9": (
        {"kind": "profile", "c": 1.45, "delta": _THIRD, "epsilon": 0.6},
        "near-threshold front with breaking-scale damping",
    ),
    "sec4-riemann": (
        {
            "kind": "evolution",
            "system": "peregrine-dissipative",
            "delta": 1.0,
            "epsilon": 0.1,
            "ic": "riemann",
            "eta_left": 0.5,
            "ramp_width": 2.0,
            "x_min": -800.0,
            "x_max": 800.0,
            "dx": 0.25,
            "dt": 0.025,
            "t_end": 60.0,
            "snapshot_times": "0,15,30,45,60",
        },
        "smoothed step releasing a right-going wave train",
    ),
    "sec4-gaussian": (
        {
            "kind": "evolution",
            "system": "peregrine-dissipative",
            "delta": 1.0,
            "epsilon": 0.1,
            "ic": "gaussian",
            "amplitude": 1.0,
            "width": 10.0,
            "x_min": -800.0,
            "x_max": 800.0,
            "dx": 0.25,
            "dt": 0.025,
            "t_end": 60.0,
            "snapshot_times": "0,15,30,45,60",
        },
        "symmetric hump splitting into two wave trains",
    ),
}


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse `key = value` lines; returns raw string values.

    Unknown keys, repeats, and malformed lines raise ConfigError naming
    the line.  A preset reference is expanded in place.
    """
    pairs: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = value
    if "preset" in pairs:
        name = pairs.pop("preset")
        if name not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown preset {name!r}; known presets: {known}")
        expanded = {k: _format_value(v) for k, v in PRESETS[name][0].items()}
        expanded.update(pairs)
        pairs = expanded
    return pairs


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_config(pairs: Dict[str, object], path) -> None:
    """Write a flat config file; floats at 17 significant digits."""
    with open(path, "w") as fh:
        for key in pairs:
            if key not in _ALL_KEYS:
                raise ConfigError(f"unknown key {key!r}")
            fh.write(f"{key} = {_format_value(pairs[key])}\n")


def _take_float(pairs: Dict[str, str], key: str, default=None) -> float:
    if key not in pairs:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = pairs.pop(key)
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {raw!r}")
    return value


def _reject_leftovers(pairs: Dict[str, str], shape: str) -> None:
    if pairs:
        names = ", ".join(sorted(pairs))
        raise ConfigError(f"keys not used by a {shape} config: {names}")


def build_wave_params(pairs: Dict[str, str]) -> WaveParams:
    pairs = dict(pairs)
    pairs.pop("kind", None)
    params = WaveParams(
        c=_take_float(pairs, "c"),
        delta=_take_float(pairs, "delta"),
        epsilon=_take_float(pairs, "epsilon"),
    )
    _reject_leftovers(pairs, "profile")
    return params


def build_run_config(pairs: Dict[str, str]) -> RunConfig:
    pairs = dict(pairs)
    pairs.pop("kind", None)
    try:
        system = SystemKind(pairs.pop("system"))
    except KeyError:
        raise ConfigError("missing required key 'system'") from None
    except ValueError:
        valid = ", ".join(s.value for s in SystemKind)
        raise ConfigError(f"unknown system; expected one of: {valid}") from None

    x_min = _take_float(pairs, "x_min", -800.0)
    x_max = _take_float(pairs, "x_max", 800.0)
    dx = _take_float(pairs, "dx", 0.25)
    if not dx > 0.0:
        raise ConfigError(f"dx must be positive, got {dx}")
    n = int(round((x_max - x_min) / dx))
    if abs(n * dx - (x_max - x_min)) > 1e-9 * max(1.0, abs(x_max - x_min)):
        raise ConfigError(f"dx = {dx} does not divide [{x_min}, {x_max}] evenly")
    boundary = pairs.pop("boundary", "periodic")
    grid = Grid(x_min, x_max, n, boundary)

    ic_kind = pairs.pop("ic", None)
    if ic_kind == "riemann":
        ic: Union[SmoothedRiemann, Gaussian] = SmoothedRiemann(
            eta_left=_take_float(pairs, "eta_left"),
            ramp_width=_take_float(pairs, "ramp_width", 2.0),
        )
    elif ic_kind == "gaussian":
        ic = Gaussian(
            amplitude=_take_float(pairs, "amplitude"),
            width=_take_float(pairs, "width"),
        )
    elif ic_kind is None:
        raise ConfigError("missing required key 'ic' (riemann or gaussian)")
    else:
        raise ConfigError(f"unknown ic {ic_kind!r}; expected riemann or gaussian")

    snap_raw = pairs.pop("snapshot_times", "")
    try:
        snapshot_times = tuple(
            float(tok) for tok in snap_raw.split(",") if tok.strip()
        )
    except ValueError:
        raise ConfigError(f"snapshot_times is not a number list: {snap_raw!r}") from None

    config = RunConfig(
        system=system,
        grid=grid,
        ic=ic,
        dt=_take_float(pairs, "dt", 0.025),
        t_end=_take_float(pairs, "t_end"),
        delta=_take_float(pairs, "delta", 0.0),
        epsilon=_take_float(pairs, "epsilon", 0.0),
        snapshot_times=snapshot_times,
    )
    _reject_leftovers(pairs, "evolution")
    return config


def load_config(path) -> Union[RunConfig, WaveParams]:
    """Load a config file; the key set decides the returned shape."""
    with open(path) as fh:
        pairs = parse_config_text(fh.read())
    if "system" in pairs or pairs.get("kind") == "evolution":
        return build_run_config(pairs)
    return build_wave_params(pairs)


def preset_pairs(name: str) -> Dict[str, object]:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}")
    return dict(PRESETS[name][0])


def preset_note(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return PRESETS[name][1]

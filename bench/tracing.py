"""Spans and work counters recorded from outside bore_lab.

The tracer wraps public names where the program looks them up: module
globals such as `pde.step`, names a module imported from another (the
waveform functions inside `traveling_wave`, the entry points inside
`cli`), and `RadauStepper.step` on the class.  Nothing in bore_lab
changes; uninstall() puts every original back.

Spans are kept in flat arrays (name, start, end, parent) and written out
once at the end.  Per-pass layer metrics are computed from them: a
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Tuple

import numpy as np

_clock = time.perf_counter


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    dur = end - start
    own = dur.copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], dur[child])
    return own


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self._saved: List[Tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(_clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def spanned(self, name: str, fn: Callable, after=None) -> Callable:
        """fn wrapped in a span; after(args, kwargs, result) may count work."""
        name_id = self.name_id(name)

        def wrapper(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        """fn wrapped in a bare call counter, for calls too frequent to span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark(self) -> Tuple[int, Counter]:
        return len(self.start), Counter(self.counts)

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32))

    def dump(self, path, passes: List[Tuple[int, int]]) -> None:
        name, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, start=start, end=end,
            parent=parent, passes=np.array(passes, dtype=np.int64).reshape(-1, 2),
        )


_WAVEFORM_NAMES = (
    "classify_regime", "critical_epsilon", "dissipated_energy",
    "empirical_bore_amplitude", "equilibria", "lyapunov_value", "potential",
    "saddle_eigenvalues", "solitary_amplitude", "surface_elevation",
    "tail_eigenvalues",
)
_CERTIFICATES = (
    "check_derivative_bounds", "check_triangle_confinement",
    "energy_identity_residual", "lyapunov_backstep",
)


def install(tracer: Tracer) -> None:
    """Wrap the public names of bore_lab's layers where they are looked up."""
    from bore_lab import cli, pde, radau, traveling_wave

    def wrap(module, attr, name, after=None):
        tracer.patch(module, attr, tracer.spanned(name, getattr(module, attr), after))

    for module in (cli, traveling_wave):
        for attr in _WAVEFORM_NAMES:
            if hasattr(module, attr):
                wrap(module, attr, "waveform")

    for attr in ("load_config", "build_wave_params", "preset_pairs"):
        wrap(cli, attr, "config")

    def count_samples(args, kwargs, profile):
        tracer.counts["traveling_wave.samples"] += profile.xi.size

    wrap(cli, "integrate_profile", "traveling_wave.integrate", count_samples)
    wrap(cli, "shape_report", "traveling_wave.shape_report")
    for attr in ("write_profile_csv", "write_shape_report_json"):
        wrap(cli, attr, "traveling_wave.write")
    for attr in _CERTIFICATES:
        wrap(traveling_wave, attr, "traveling_wave.certificates")
    tracer.patch(traveling_wave, "vector_field",
                 tracer.counted("traveling_wave.rhs_evals", traveling_wave.vector_field))

    step_id = tracer.name_id("radau.step")
    radau_step = radau.RadauStepper.step

    def stepper_step(self):
        rejected = self.nrejected
        idx = tracer.open(step_id)
        try:
            return radau_step(self)
        finally:
            tracer.close(idx)
            tracer.counts["radau.steps"] += 1
            tracer.counts["radau.rejected"] += self.nrejected - rejected

    tracer.patch(radau.RadauStepper, "step", stepper_step)

    rk4_id, rusanov_id = tracer.name_id("pde.rk4_step"), tracer.name_id("pde.rusanov_step")
    pde_step = pde.step
    shallow = pde.SystemKind.SHALLOW_WATER

    def step(state, config):
        rusanov = config.system is shallow
        idx = tracer.open(rusanov_id if rusanov else rk4_id)
        try:
            return pde_step(state, config)
        finally:
            tracer.close(idx)
            if rusanov:
                tracer.counts["pde.rusanov_steps"] += 1
            else:
                tracer.counts["pde.rk4_steps"] += 1
                tracer.counts["pde.cell_steps"] += config.grid.n

    tracer.patch(pde, "step", step)

    def count_call(key):
        def after(args, kwargs, result):
            tracer.counts[key] += 1
        return after

    wrap(pde, "helmholtz_apply_inverse", "pde.helmholtz", count_call("pde.helmholtz_solves"))
    wrap(pde, "first_difference", "pde.first_difference",
         count_call("pde.first_difference_calls"))
    wrap(pde, "second_difference", "pde.second_difference",
         count_call("pde.second_difference_calls"))
    wrap(pde, "error_norm", "pde.error_norm")

    def count_runs(args, kwargs, result):
        config, epsilons = args[0], args[1]
        workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
        runs = 1 + len(epsilons)
        tracer.counts["pde.error_study_runs"] += runs
        if workers > 1:
            # The runs happened in pool workers the tracer cannot see.
            steps = runs * int(round(config.t_end / config.dt))
            tracer.counts["computed:pde.rk4_steps"] += steps
            tracer.counts["computed:pde.cell_steps"] += steps * config.grid.n

    wrap(cli, "error_study", "pde.error_study", count_runs)
    for module in (cli, pde):
        wrap(module, "evolve", "pde.evolve")
    for attr in ("write_snapshot_csv", "write_snapshot_manifest", "write_error_series_csv"):
        wrap(cli, attr, "pde.write")


# Layer metric -> (span name, "total" or "self") for times.
TIMES = {
    "cli.self_s": ("cli.main", "self"),
    "config.load_s": ("config", "total"),
    "waveform.s": ("waveform", "total"),
    "radau.step_s": ("radau.step", "total"),
    "traveling_wave.integrate_s": ("traveling_wave.integrate", "self"),
    "traveling_wave.shape_report_s": ("traveling_wave.shape_report", "total"),
    "traveling_wave.certificates_s": ("traveling_wave.certificates", "total"),
    "traveling_wave.write_s": ("traveling_wave.write", "total"),
    "pde.evolve_s": ("pde.evolve", "self"),
    "pde.rk4_step_s": ("pde.rk4_step", "total"),
    "pde.rusanov_step_s": ("pde.rusanov_step", "total"),
    "pde.helmholtz_s": ("pde.helmholtz", "total"),
    "pde.first_difference_s": ("pde.first_difference", "total"),
    "pde.second_difference_s": ("pde.second_difference", "total"),
    "pde.error_study_s": ("pde.error_study", "self"),
    "pde.error_norm_s": ("pde.error_norm", "total"),
    "pde.write_s": ("pde.write", "total"),
}
COUNTS = (
    "radau.steps", "radau.rejected", "traveling_wave.samples",
    "traveling_wave.rhs_evals", "pde.rk4_steps", "pde.cell_steps",
    "pde.rusanov_steps", "pde.helmholtz_solves", "pde.first_difference_calls",
    "pde.second_difference_calls", "pde.error_study_runs",
)


def pass_layers(tracer: Tracer, begin: Tuple[int, Counter], end: Tuple[int, Counter],
                own: np.ndarray) -> Tuple[Dict[str, float], List[str]]:
    """Layer metrics of the spans and counts between two marks.

    Returns the metrics and the names of those computed from the inputs
    rather than counted.
    """
    (lo, counts_lo), (hi, counts_hi) = begin, end
    name, start, stop, _ = tracer.arrays()
    ids = name[lo:hi]
    total = np.bincount(ids, weights=stop[lo:hi] - start[lo:hi], minlength=len(tracer.names))
    selfs = np.bincount(ids, weights=own[lo:hi], minlength=len(tracer.names))
    out: Dict[str, float] = {}
    for metric, (span, kind) in TIMES.items():
        sid = tracer.ids.get(span)
        out[metric] = 0.0 if sid is None else float((selfs if kind == "self" else total)[sid])
    counts = counts_hi - counts_lo
    computed = []
    for key in COUNTS:
        out[key] = counts[key]
        if counts["computed:" + key]:
            out[key] += counts["computed:" + key]
            computed.append(key)
    out["radau.step_us"] = (1e6 * out["radau.step_s"] / out["radau.steps"]
                            if out["radau.steps"] else 0.0)
    return out, computed

"""The three benchmark workloads and the commands of each pass.

Stdlib only: the orchestrator (run.py) imports this module without
importing bore_lab.  See README.md for why each workload exists.

A pass is one list of `bore-lab` command lines.  The seed fixes the
order of the commands in every pass and, for profile-presets, the delta
of the off-preset stiff triple.  Passes come in pairs: the second pass of
a pair mirrors that delta inside its range (see stiff_deltas), so the
median over a run's passes hardly depends on where the draw landed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("profile-presets", "evolve-riemann", "error-study-c08")

PROFILE_PRESETS = ("fig2", "fig5", "fig6-a", "fig6-b", "fig6-c", "fig9")
STIFF_C = 1.3
STIFF_EPSILON = 1.2
STIFF_DELTA_RANGE = (0.08, 0.12)

C08_EPSILONS = "0.1,0.05,0.02,0.01"

# Config files written at set-up, relative to the run's config directory.
CONFIG_FILES: Dict[str, Dict[str, str]] = {
    "profile-presets": {},
    "evolve-riemann": {"sec4-riemann.conf": "preset = sec4-riemann\n"},
    "error-study-c08": {
        "c08.conf": (
            "# acceptance criterion 8: deviation from the inviscid run\n"
            "kind = evolution\n"
            "system = peregrine-dissipative\n"
            "delta = 1\n"
            "epsilon = 0.1\n"
            "ic = riemann\n"
            "eta_left = 0.5\n"
            "ramp_width = 2\n"
            "x_min = -400\n"
            "x_max = 400\n"
            "dx = 0.25\n"
            "dt = 0.025\n"
            "t_end = 25\n"
            "snapshot_times = 5,7.5,10,12.5,15,20,25\n"
        ),
    },
}


@dataclass(frozen=True)
class Command:
    """One `bore-lab` invocation.

    argv holds "{out}" and "{config}" placeholders for the output and
    config directories.  params is the (c, delta, epsilon) triple of a
    profile command given on the command line, preset the name of a
    preset one.
    """

    label: str
    kind: str
    argv: Tuple[str, ...]
    preset: Optional[str] = None
    params: Optional[Tuple[float, float, float]] = None

    def resolve(self, out_dir: str, config_dir: str) -> List[str]:
        return [a.format(out=out_dir, config=config_dir) for a in self.argv]


def stiff_deltas(seed: int) -> Tuple[float, float]:
    """The stiff triple's delta for even and for odd passes.

    The odd one mirrors the drawn delta in 1/delta, to which the stiff
    command's step count is proportional, so a pair of passes does about
    the same work whatever the draw.
    """
    lo, hi = STIFF_DELTA_RANGE
    delta = lo + (hi - lo) * random.Random(seed).random()
    return delta, 1.0 / (1.0 / lo + 1.0 / hi - 1.0 / delta)


def _profile_commands(delta: float) -> List[Command]:
    cmds = [
        Command(f"profile {name}", "profile",
                ("profile", "--preset", name, "--out-dir", "{out}/" + name),
                preset=name)
        for name in PROFILE_PRESETS
    ]
    cmds.append(
        Command(
            f"profile stiff delta={delta!r}", "profile",
            ("profile", "--c", repr(STIFF_C), "--delta", repr(delta),
             "--epsilon", repr(STIFF_EPSILON), "--out-dir", "{out}/stiff"),
            params=(STIFF_C, delta, STIFF_EPSILON),
        )
    )
    return cmds


def pass_commands(workload: str, seed: int, index: int) -> List[Command]:
    """The commands of pass number index, in the order the seed gives."""
    if workload == "profile-presets":
        cmds = _profile_commands(stiff_deltas(seed)[index % 2])
    elif workload == "evolve-riemann":
        cmds = [Command(
            "evolve sec4-riemann --reference shallow-water", "evolve",
            ("evolve", "--config", "{config}/sec4-riemann.conf",
             "--out-dir", "{out}/riemann", "--reference", "shallow-water"),
        )]
    elif workload == "error-study-c08":
        cmds = [Command(
            f"error-study c08 --epsilons {C08_EPSILONS}", "error-study",
            ("error-study", "--config", "{config}/c08.conf",
             "--epsilons", C08_EPSILONS, "--out-dir", "{out}/c08"),
        )]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"{seed}/{index}").shuffle(cmds)
    return cmds

"""Tests of the benchmark itself (not part of the Tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The repeat test runs each workload's traced run twice, about five
minutes in all; select one workload with -k, e.g. -k evolve.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracing import Tracer, install, self_times  # noqa: E402
from workloads import STIFF_DELTA_RANGE, WORKLOADS, pass_commands, stiff_deltas  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_uninstall_restores_every_wrapped_name():
    from bore_lab import cli, pde, radau, traveling_wave

    before = (pde.step, pde.first_difference, cli.evolve, cli.integrate_profile,
              traveling_wave.equilibria, traveling_wave.vector_field,
              radau.RadauStepper.step)
    tracer = Tracer()
    install(tracer)
    assert pde.step is not before[0]
    tracer.uninstall()
    after = (pde.step, pde.first_difference, cli.evolve, cli.integrate_profile,
             traveling_wave.equilibria, traveling_wave.vector_field,
             radau.RadauStepper.step)
    assert all(a is b for a, b in zip(before, after))


def test_seed_fixes_order_and_mirrors_the_stiff_delta():
    lo, hi = STIFF_DELTA_RANGE
    for seed in range(20):
        even, odd = stiff_deltas(seed)
        assert lo <= even <= hi and lo <= odd <= hi
        assert 1 / even + 1 / odd == pytest.approx(1 / lo + 1 / hi)
    first = [c.argv for c in pass_commands("profile-presets", 5, 3)]
    again = [c.argv for c in pass_commands("profile-presets", 5, 3)]
    assert first == again
    assert sorted(first) == sorted(c.argv for c in pass_commands("profile-presets", 5, 1))


def _traced(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_with_one_seed_count_the_same_work(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert any(counts.values())

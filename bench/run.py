"""bore-lab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload profile-presets --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; bore_lab is imported from its src/.
The workloads, metrics and the reasons for them are in bench/README.md.

This orchestrator uses only the stdlib and never imports bore_lab.  It
times set-up in fresh processes, then starts one fresh worker process
(bench/worker.py) that runs the workload's passes in-process through
bore_lab.cli.main, and prints a report whose last line is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_PROBES = 3
WORKER_TIMEOUT_S = 170.0
WORK_DIR = ROOT / ".bench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        return int(out)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine_block() -> dict:
    affinity = len(os.sched_getaffinity(0))
    cpu_count = os.cpu_count()
    if cpu_count is not None and cpu_count > affinity:
        raise BenchError(
            f"os.cpu_count() = {cpu_count} exceeds the CPU affinity size {affinity}: "
            "error-study would start more pool workers than this process may use; "
            "run on a machine or cgroup where the two agree")
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {
        "nproc": nproc, "os.cpu_count": cpu_count, "affinity": affinity,
        "l2_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # error-study runs with the CLI's default worker count.
    env.pop("BORE_LAB_THREADS", None)
    return env


def _worker(args, run_dir: Path, *extra) -> list:
    return [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--run-dir", str(run_dir), *extra]


def _run(cmd: list, env: dict, timeout: float) -> None:
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n"
                         + err.decode(errors="replace")[-2000:])


def measure_setup(args, run_dir: Path, env: dict) -> list:
    """Seconds from spawning a fresh process to its first possible command."""
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _run(_worker(args, run_dir / f"setup-{i}", "--setup-only"), env, 60.0)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(result: dict, setup: list, attempted: int, failed: int) -> dict:
    passes = result["passes"]
    self_kb, child_kb = result["peak_rss_kb"]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "cmd_max_s": statistics.median(p["cmd_max"] for p in passes),
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "setup_s": statistics.median(setup),
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    spans = WORK_DIR / f"{args.workload}.spans.npz"
    try:
        if not (ROOT / "src" / "bore_lab" / "cli.py").is_file():
            raise BenchError(f"no bore_lab sources under {ROOT / 'src'}")
        machine = machine_block()
        env = _env()
        run_dir.mkdir(parents=True)
        setup = [] if args.trace else measure_setup(args, run_dir, env)
        _run(_worker(args, run_dir), env, WORKER_TIMEOUT_S)
        result = json.loads((run_dir / "result.json").read_text())
        if args.trace:
            os.replace(run_dir / "spans.npz", spans)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = result["passes"]
    commands = [c for p in passes for c in p["commands"]]
    failures = [(c["label"], c["failures"]) for c in commands if c["failures"]]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("machine", json.dumps({**result["versions"], **machine}))
    print("inputs", json.dumps(result["inputs"]))
    for p in passes:
        print(f"pass {p['index']}{' traced' if p['traced'] else ''}: "
              f"wall {p['wall']:.3f} s  cpu {p['cpu']:.3f} s  "
              f"slowest command {p['cmd_max']:.3f} s"
              + (f"  spans {p['spans']}" if p["traced"] else ""))
    for label, why in failures:
        print(f"FAILED {label}: {'; '.join(why)}")
    print(f"fail_ratio {len(failures) / len(commands):.6g} "
          f"({len(failures)} of {len(commands)} commands)")

    if args.trace:
        values = per_layer(result)
        computed = sorted({k for p in passes if p["traced"] for k in p["computed"]})
        if computed:
            print("computed from the inputs, not counted (the runs happen in pool "
                  "workers the tracer cannot see): " + ", ".join(computed))
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        values = end_to_end(result, setup, len(commands), len(failures))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: values[name] for name in units}
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of fslvlasov: one workload per call, in a fresh pinned process.

    python3 perfbench/run.py --workload kelvin_helmholtz --seed 0 --seconds 30 --trace 0

runs the workload in a new Python process with the BLAS and OpenMP thread
counts pinned to 1 (see PINNED_ENV), prints one line with the environment
record and run details, and as its last line the JSON result with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-module span metrics.

    python3 perfbench/run.py --workload all --seconds 30

runs every workload untraced and traced and prints all metrics as a table.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: one thread for BLAS and OpenMP.  The allocator keeps glibc's defaults,
#: so the page faults of a step's large temporaries count in its time, as
#: they do for every user of solver.run.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def worker_timeout(seconds: int) -> int:
    """Seconds a worker may take: its budget plus set-up, warm-up and the
    simulation that ends the budget, with room for a slow host."""
    return seconds + 2 * max(seconds, 60)


class BenchError(RuntimeError):
    pass


def workloads() -> tuple[str, ...]:
    """The workloads as BENCHMARK.json names them; worker.WORKLOADS holds
    their parameters."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return tuple(w["name"] for w in json.load(fh)["workloads"])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "commit": _git_commit(),
        "pinned_env": PINNED_ENV,
    }


def run_worker(workload: str, seed: int, seconds: int, trace: int, grid=None):
    """(info, result) of one worker process; BenchError if it fails."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if grid is not None:
        cmd += ["--grid", str(grid)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    timeout = worker_timeout(seconds)
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        raise BenchError(f"{workload}: unreadable worker output {proc.stdout!r}") from None
    return info, result


def report(seconds: int, seed: int, grid=None) -> int:
    """Every workload, untraced then traced, as one table."""
    ok = True
    print(f"# {json.dumps(environment())}")
    for workload in workloads():
        for trace in (0, 1):
            info, result = run_worker(workload, seed, seconds, trace, grid)
            ok = ok and result["correct"]
            rows = [("runs_attempted", result["attempted"], "count"),
                    ("runs_failed", result["failed"], "count")]
            rows += [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
            rows += [(k, v, "ratio") for k, v in info.get("quality", {}).items()
                     if k not in result["metrics"]]
            for name, value, unit in rows:
                print(f"{workload:17s} {name:40s} {value:14.6g} {unit}")
            for problem in info["problems"]:
                print(f"{workload:17s} problem: {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads() + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", type=int, help="smoke-test grid size (tests only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fslvlasov" / "__init__.py").is_file():
        print(f"error: no fslvlasov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return report(args.seconds, args.seed, args.grid)
        env = environment()
        info, result = run_worker(args.workload, args.seed, args.seconds, args.trace, args.grid)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"env": env, "info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

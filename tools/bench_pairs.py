"""Benchmark two source trees against each other in interleaved pairs.

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE --workload W --pairs N [--seconds S] [--seed K]

OLD_TREE and NEW_TREE are checkout roots, each holding ``perfbench/`` and
``src/fslvlasov``.  Each pair runs ``perfbench/run.py --trace 0`` once from
each tree, in a fresh process with the tree as working directory; the
tree that goes first alternates from pair to pair, so a drift of the
host's speed does not favour one side.  The script prints every
end-to-end metric of every run, then per metric the two medians, the
interquartile range of the old runs and the number of pairs in which the
new tree is better (the direction comes from ``BENCHMARK.json``).  Exit
status 1 when a run fails, reads ``correct: false`` or ``failed > 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def end_to_end_metrics(tree: str) -> list[tuple[str, str]]:
    """(name, better) of every end-to-end metric that BENCHMARK.json declares."""
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        return [(m["name"], m["better"]) for m in json.load(fh)["end_to_end"]]


def run_once(tree: str, workload: str, seconds: int, seed: int) -> dict:
    """The JSON result line of one perfbench run from ``tree``; a run that
    exits non-zero or prints no result reads as ``correct: false``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    sys.stderr.write(proc.stderr)
    return {"correct": False, "failed": None, "metrics": {}}


def better(new: float, old: float, direction: str) -> bool:
    return new < old if direction == "lower" else new > old


def summarize(metrics, runs) -> list[str]:
    """Table lines from ``runs``, a list of (old, new) result pairs."""
    lines = []
    for name, direction in metrics:
        old = np.array([o["metrics"][name]["value"] for o, _ in runs])
        new = np.array([n["metrics"][name]["value"] for _, n in runs])
        q1, q3 = np.percentile(old, [25, 75])
        m_old, m_new = float(np.median(old)), float(np.median(new))
        change = (m_new - m_old) / abs(m_old) if m_old else float("nan")
        wins = sum(better(n, o, direction) for o, n in zip(old, new))
        lines.append(f"{name:18s} old {m_old:12.6g} (IQR {q3 - q1:.4g})  new {m_new:12.6g}"
                     f"  {100 * change:+7.2f}%  new better {wins}/{len(runs)} ({direction})")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_tree")
    p.add_argument("new_tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    trees = {"old": os.path.abspath(args.old_tree), "new": os.path.abspath(args.new_tree)}
    metrics = end_to_end_metrics(trees["new"])
    runs, ok = [], True
    print("pair tree " + " ".join(f"{name:>14s}" for name, _ in metrics))
    for i in range(args.pairs):
        res = {}
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            r = res[side] = run_once(trees[side], args.workload, args.seconds, args.seed)
            ok = ok and r["correct"] is True and r["failed"] == 0
            cells = " ".join(f"{r['metrics'][n]['value']:14.6g}" if n in r["metrics"]
                             else f"{'-':>14s}" for n, _ in metrics)
            print(f"{i:4d} {side:4s} {cells}  correct={r['correct']} failed={r['failed']}",
                  flush=True)
        if all(n in r["metrics"] for r in res.values() for n, _ in metrics):
            runs.append((res["old"], res["new"]))
    if runs:
        print(f"{args.workload}: medians over {len(runs)} pairs, old first in even pairs")
        print("\n".join(summarize(metrics, runs)))
    if not ok:
        print("FAIL: a run failed, read correct: false or failed > 0")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

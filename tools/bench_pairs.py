"""Benchmark two source trees against each other in interleaved pairs.

    python3 tools/bench_pairs.py OLD_TREE NEW_TREE --workload W --pairs N [--seconds S] [--seed K]
                                 [--json BENCH_label.json]

OLD_TREE and NEW_TREE are checkout roots, each holding ``perfbench/`` and
``src/fslvlasov``.  Each pair runs ``perfbench/run.py --trace 0`` once from
each tree, in a fresh process with the tree as working directory; the
tree that goes first alternates from pair to pair, so a drift of the
host's speed does not favour one side.  The script prints every
end-to-end metric of every run, then per metric the two medians, the
interquartile range of the old runs and the number of pairs in which the
new tree is better (the direction comes from ``BENCHMARK.json``).  Exit
status 1 when a run fails, reads ``correct: false`` or ``failed > 0``.

``--json PATH`` also records the comparison in PATH: the path as given,
git commit and dirty flag of both trees, and under ``workloads`` the
workload's settings, every run (tree, ``correct``, ``failed``, probe
times, metric values) and per metric the two medians, the old IQR and
the pairs won.  An existing file for the same two trees gains or
replaces the workload's entry, so one file can hold every workload; a
file written for other trees is an error.
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


def git_state(tree: str) -> dict:
    """Commit and dirty flag of the checkout at ``tree`` ("unknown" outside git)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(tree)))

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=tree, env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}
    if head.returncode != 0:
        return {"commit": "unknown", "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def run_once(tree: str, workload: str, seconds: int, seed: int) -> dict:
    """The JSON result line of one perfbench run from ``tree``, with the
    probe figures of its info line; a run that exits non-zero or prints no
    result reads as ``correct: false``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        try:
            result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
            result["probe_ms"] = info.get("probe_ms")
            result["probe_ref_ms"] = info.get("probe_ref_ms")
            return result
        except (ValueError, KeyError, TypeError):
            pass
    sys.stderr.write(proc.stderr)
    return {"correct": False, "failed": None, "metrics": {}}


def better(new: float, old: float, direction: str) -> bool:
    return new < old if direction == "lower" else new > old


def pair_stats(metrics, runs) -> dict:
    """Per metric of ``runs``, a list of (old, new) result pairs: the two
    medians, the old runs' IQR and the pairs in which the new tree is better."""
    out = {}
    for name, direction in metrics:
        old = np.array([o["metrics"][name]["value"] for o, _ in runs])
        new = np.array([n["metrics"][name]["value"] for _, n in runs])
        q1, q3 = np.percentile(old, [25, 75])
        out[name] = {"better": direction, "old_median": float(np.median(old)),
                     "new_median": float(np.median(new)), "old_iqr": float(q3 - q1),
                     "new_better_pairs": int(sum(better(n, o, direction)
                                                 for o, n in zip(old, new))),
                     "pairs": len(runs)}
    return out


def summarize(metrics, runs) -> list[str]:
    """Table lines from ``runs``, a list of (old, new) result pairs."""
    lines = []
    for name, st in pair_stats(metrics, runs).items():
        m_old, m_new = st["old_median"], st["new_median"]
        change = (m_new - m_old) / abs(m_old) if m_old else float("nan")
        lines.append(f"{name:18s} old {m_old:12.6g} (IQR {st['old_iqr']:.4g})  new {m_new:12.6g}"
                     f"  {100 * change:+7.2f}%  new better {st['new_better_pairs']}/{len(runs)}"
                     f" ({st['better']})")
    return lines


def load_record(path: str, trees: dict) -> dict:
    """The JSON record at ``path`` (a new one if absent) for these trees."""
    doc = {"trees": trees, "workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("trees") != trees:
            raise SystemExit(f"{path} records other trees: {doc.get('trees')}")
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_tree")
    p.add_argument("new_tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", help="also record the comparison in PATH")
    args = p.parse_args(argv)
    trees = {"old": os.path.abspath(args.old_tree), "new": os.path.abspath(args.new_tree)}
    if args.json:  # the paths as given, so the record names no host directories
        given = {"old": args.old_tree, "new": args.new_tree}
        record = load_record(args.json, {side: {"path": given[side], **git_state(path)}
                                         for side, path in trees.items()})
    metrics = end_to_end_metrics(trees["new"])
    runs, ok, log = [], True, []
    print("pair tree " + " ".join(f"{name:>14s}" for name, _ in metrics))
    for i in range(args.pairs):
        res = {}
        for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
            r = res[side] = run_once(trees[side], args.workload, args.seconds, args.seed)
            ok = ok and r["correct"] is True and r["failed"] == 0
            log.append({"pair": i, "tree": side, "correct": r["correct"], "failed": r["failed"],
                        "probe_ms": r.get("probe_ms"), "probe_ref_ms": r.get("probe_ref_ms"),
                        "metrics": {n: m["value"] for n, m in r["metrics"].items()}})
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
    if args.json:
        record["workloads"][args.workload] = {
            "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed, "ok": ok,
            "metrics": pair_stats(metrics, runs) if runs else {}, "runs": log}
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

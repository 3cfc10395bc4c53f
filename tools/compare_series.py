"""Compare the diagnostic series of two source trees, channel by channel.

    python3 tools/compare_series.py OLD_SRC NEW_SRC [--rtol R]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts (a
checkout root holding ``src/fslvlasov`` works too).  Each tree runs the
fixed list CONFIGS below (case, scheme and pusher at a short t_end) in one
child process of its own, so the two never share an import.  For every
run and channel the script prints the largest difference over the whole
series divided by the channel's scale, the largest |value| in the old
series (1 when that is 0).  NaN entries must be NaN in both series.
Exit status 1 when any difference exceeds ``--rtol`` (default 0: the
series must match bit for bit), 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

#: (label, case, overrides): default grids, 6 to 12 steps each; together
#: they run every (model, pusher) pair and every scheme
CONFIGS = [
    ("landau fsl verlet", "landau", {"t_end": 1.2}),
    ("landau fsl rk4", "landau", {"t_end": 1.2, "pusher": "rk4"}),
    ("landau hybrid T=3", "landau", {"t_end": 1.2, "scheme": "hybrid", "T": 3}),
    ("landau bsl", "landau", {"t_end": 1.2, "scheme": "bsl"}),
    ("two_stream fsl verlet", "two_stream", {"t_end": 5.0}),
    ("bump_on_tail fsl rk4", "bump_on_tail", {"t_end": 5.0}),
    ("kelvin_helmholtz fsl rk4", "kelvin_helmholtz", {"t_end": 5.0}),
    ("kelvin_helmholtz fsl rk2", "kelvin_helmholtz", {"t_end": 5.0, "pusher": "rk2"}),
    ("kelvin_helmholtz hybrid T=3", "kelvin_helmholtz",
     {"t_end": 4.5, "scheme": "hybrid", "T": 3}),
    ("kelvin_helmholtz bsl", "kelvin_helmholtz", {"t_end": 3.0, "scheme": "bsl"}),
    ("hill fsl rk2", "hill", {"t_end": 12 * 2.0 * math.pi / 25.0}),
    # the remaining (model, pusher) pairs, so every tableau runs
    ("landau fsl rk2", "landau", {"t_end": 1.2, "pusher": "rk2"}),
    ("kelvin_helmholtz fsl euler", "kelvin_helmholtz", {"t_end": 5.0, "pusher": "euler"}),
    ("kelvin_helmholtz fsl rk3", "kelvin_helmholtz", {"t_end": 5.0, "pusher": "rk3"}),
    ("hill fsl rk4", "hill", {"t_end": 12 * 2.0 * math.pi / 25.0, "pusher": "rk4"}),
    ("hill fsl verlet", "hill", {"t_end": 12 * 2.0 * math.pi / 25.0, "pusher": "verlet"}),
    ("two_stream hybrid T=2 rk2", "two_stream",
     {"t_end": 5.0, "scheme": "hybrid", "T": 2, "pusher": "rk2"}),
]


def dump():
    """Child mode: run every config with the tree on sys.path, print JSON."""
    import numpy as np
    from fslvlasov import cases, solver

    out = {}
    for label, case, overrides in CONFIGS:
        cfg = cases.apply_overrides(cases.case_defaults(case), overrides)
        res = solver.run(cfg)
        out[label] = {name: np.asarray(v, dtype=float).tolist()
                      for name, v in res.channels.items()}
    json.dump(out, sys.stdout)


def _src_dir(path: str) -> str:
    if os.path.isdir(os.path.join(path, "fslvlasov")):
        return os.path.abspath(path)
    if os.path.isdir(os.path.join(path, "src", "fslvlasov")):
        return os.path.abspath(os.path.join(path, "src"))
    raise SystemExit(f"no fslvlasov package under {path}")


def series_of(path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=_src_dir(path), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def rel_diff(old, new) -> float:
    """Largest |old - new| over the channel scale; inf on a length or NaN mismatch."""
    import numpy as np

    a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf")
    ok = ~np.isnan(a)
    if not ok.any():
        return 0.0
    scale = float(np.max(np.abs(a[ok]))) or 1.0
    return float(np.max(np.abs(a[ok] - b[ok]))) / scale


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--rtol", type=float, default=0.0,
                   help="largest allowed difference over the channel scale (default 0)")
    args = p.parse_args(argv)
    old, new = series_of(args.old_src), series_of(args.new_src)
    worst = 0.0
    for label, _, _ in CONFIGS:
        diffs = {name: rel_diff(old[label][name], new[label][name]) for name in old[label]}
        worst = max(worst, *diffs.values())
        cells = "  ".join(f"{name} {d:.2g}" for name, d in diffs.items())
        print(f"{label:30s} {cells}")
    verdict = "ok" if worst <= args.rtol else "FAIL"
    print(f"largest relative difference {worst:.3g} (rtol {args.rtol:g}): {verdict}")
    return 0 if worst <= args.rtol else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    else:
        raise SystemExit(main())

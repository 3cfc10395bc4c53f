"""Compare the diagnostic series of two source trees, channel by channel.

    python3 tools/compare_series.py OLD_SRC NEW_SRC [--rtol R] [--atol A]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts (a
checkout root holding ``src/fslvlasov`` works too).  Each tree runs the
fixed list CONFIGS below (case, scheme and pusher at a short t_end) in one
child process of its own, so the two never share an import.  For every
run and channel the script prints the largest difference over the whole
series divided by the channel's scale, the largest |value| in the old
series (1 when that is 0), and in brackets the largest difference itself,
so that a channel of pure round-off shows as such.  NaN entries must be
NaN in both series.  The ``snapshots`` column does the same over all
snapshot arrays of the run.  The ``config`` column reads 0 when the two
trees echo the run's configuration (``cases.format_config``) byte for
byte, 1 otherwise.  A last row holds each column's worst relative and
worst absolute difference over all runs.

A channel passes when its largest absolute difference is at most
``rtol * scale + atol``, the rule of perfbench's fingerprint check.  Each
channel that fails gets a line ``past: RUN CHANNEL |diff| D allowed A``
before the summary line.  Exit status 1 when a channel fails or any echo
differs, 0 otherwise.  The defaults rtol = atol = 0 ask for the series
to match bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

#: (label, case, overrides): default grids, 6 to 12 steps each; together
#: they run every (model, pusher) pair, every scheme and every model's
#: hybrid rows between remaps.  Each snapshot_every divides the step count,
#: so every run compares f mid-run and at its last step; the hybrid runs
#: snapshot between remaps too
HILL_T = 12 * 2.0 * math.pi / 25.0
CONFIGS = [
    ("landau fsl verlet", "landau", {"t_end": 1.2, "snapshot_every": 6}),
    ("landau fsl rk4", "landau", {"t_end": 1.2, "pusher": "rk4", "snapshot_every": 6}),
    ("landau hybrid T=3", "landau",
     {"t_end": 1.2, "scheme": "hybrid", "T": 3, "snapshot_every": 4}),
    ("landau bsl", "landau", {"t_end": 1.2, "scheme": "bsl", "snapshot_every": 6}),
    ("two_stream fsl verlet", "two_stream", {"t_end": 5.0, "snapshot_every": 5}),
    ("bump_on_tail fsl rk4", "bump_on_tail", {"t_end": 5.0, "snapshot_every": 5}),
    ("kelvin_helmholtz fsl rk4", "kelvin_helmholtz", {"t_end": 5.0, "snapshot_every": 5}),
    ("kelvin_helmholtz fsl rk2", "kelvin_helmholtz",
     {"t_end": 5.0, "pusher": "rk2", "snapshot_every": 5}),
    ("kelvin_helmholtz hybrid T=3", "kelvin_helmholtz",
     {"t_end": 4.5, "scheme": "hybrid", "T": 3, "snapshot_every": 1}),
    ("kelvin_helmholtz bsl", "kelvin_helmholtz",
     {"t_end": 3.0, "scheme": "bsl", "snapshot_every": 3}),
    # rows on every other step: a step that first reads a lazily solved node field
    ("kelvin_helmholtz bsl diag_every=2", "kelvin_helmholtz",
     {"t_end": 3.0, "scheme": "bsl", "diag_every": 2, "snapshot_every": 3}),
    ("hill fsl rk2", "hill", {"t_end": HILL_T, "snapshot_every": 6}),
    # the remaining (model, pusher) pairs, so every tableau runs
    ("landau fsl rk2", "landau", {"t_end": 1.2, "pusher": "rk2", "snapshot_every": 6}),
    ("kelvin_helmholtz fsl euler", "kelvin_helmholtz",
     {"t_end": 5.0, "pusher": "euler", "snapshot_every": 5}),
    ("kelvin_helmholtz fsl rk3", "kelvin_helmholtz",
     {"t_end": 5.0, "pusher": "rk3", "snapshot_every": 5}),
    ("hill fsl rk4", "hill", {"t_end": HILL_T, "pusher": "rk4", "snapshot_every": 6}),
    ("hill fsl verlet", "hill", {"t_end": HILL_T, "pusher": "verlet", "snapshot_every": 6}),
    ("two_stream hybrid T=2 rk2", "two_stream",
     {"t_end": 5.0, "scheme": "hybrid", "T": 2, "pusher": "rk2", "snapshot_every": 5}),
    ("hill hybrid T=2", "hill",
     {"t_end": HILL_T, "scheme": "hybrid", "T": 2, "snapshot_every": 3}),
    # a wide v box leaves negligible tail coefficients, so the seed drops
    # them: the Vlasov-Poisson node field, stage deposits and gathers and
    # the rows between remaps run on a set that is not the whole lattice
    ("bump_on_tail fsl rk4 v_max=14", "bump_on_tail",
     {"t_end": 5.0, "v_max": 14.0, "snapshot_every": 5}),
    ("bump_on_tail hybrid T=2 v_max=14", "bump_on_tail",
     {"t_end": 5.0, "scheme": "hybrid", "T": 2, "v_max": 14.0, "snapshot_every": 5}),
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
        out[label]["snapshots"] = [f.tolist() for _, f in res.snapshots]
        out[label]["config"] = cases.format_config(cfg)
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


def diff_and_scale(old, new) -> tuple[float, float]:
    """Largest |old - new| and the scale, the largest |old| (1 when 0);
    the difference is inf on a shape or NaN mismatch.  A list of snapshots
    compares as one stacked array."""
    import numpy as np

    a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return float("inf"), 1.0
    ok = ~np.isnan(a)
    if not ok.any():
        return 0.0, 1.0
    return float(np.max(np.abs(a[ok] - b[ok]))), float(np.max(np.abs(a[ok]))) or 1.0


def _row(label: str, cells: dict, echo: int) -> str:
    return (f"{label:33s} " + "  ".join(f"{k} {r:.2g} ({d:.2g})" for k, (r, d) in cells.items())
            + f"  config {echo}")


def report(old: dict, new: dict, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """Print one row of relative and absolute differences for each run of
    ``old``, the worst case of each column, then a line for each failing
    channel; True when every channel passes and every echo matches.  ``old``
    and ``new`` map run labels to the series that ``dump`` writes."""
    worst, failed, echoes_differ = {}, [], 0
    for label in old:
        o, n = dict(old[label]), dict(new[label])
        echo_differs = int(o.pop("config") != n.pop("config"))
        echoes_differ += echo_differs
        cells = {}
        for name in o:
            diff, scale = diff_and_scale(o[name], n[name])
            allowed = rtol * scale + atol
            if diff > allowed:
                failed.append(f"past: {label} {name} |diff| {diff:.3g} allowed {allowed:.3g}")
            cells[name] = (diff / scale, diff)
            worst[name] = tuple(map(max, worst.get(name, (0.0, 0.0)), cells[name]))
        print(_row(label, cells, echo_differs))
    print(_row("worst", worst, int(echoes_differ > 0)))
    for line in failed:
        print(line)
    ok = not failed and not echoes_differ
    print(f"{len(failed)} channels past rtol {rtol:g} x scale + atol {atol:g}, "
          f"{echoes_differ} config echoes differ: {'ok' if ok else 'FAIL'}")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--rtol", type=float, default=0.0,
                   help="allowed difference per unit of the channel scale (default 0)")
    p.add_argument("--atol", type=float, default=0.0,
                   help="allowed absolute difference on top of rtol (default 0)")
    args = p.parse_args(argv)
    return 0 if report(series_of(args.old_src), series_of(args.new_src),
                       args.rtol, args.atol) else 1


if __name__ == "__main__":
    if sys.argv[1:] == ["--dump"]:
        dump()
    else:
        raise SystemExit(main())

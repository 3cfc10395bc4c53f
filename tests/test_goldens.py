"""Regression net: the final value of every series channel of a few short,
coarse runs, frozen in ``goldens.json`` beside this file.

Each channel must match its golden to 1e-12 relative, with an absolute
floor of 1e-13 times the larger of the channel's largest |value| over the
run and the run's largest l2 norm.  The l2 part sets the floor of channels
that sit at round-off, whose own maximum is round-off too: the GC ``mass``
(an integral of sin y, about 1e-15), ``mass_lost`` and the VP ``momentum``.
To record new goldens after a deliberate change of the numerics, run
``PYTHONPATH=src python3 tests/test_goldens.py`` and say why in the log.
"""

import json
import math
import os

import numpy as np
import pytest

from fslvlasov import cases, solver

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens.json")

#: name -> (case, overrides): 16 to 32 cells, 9 to 10 steps
RUNS = {
    "landau": ("landau", {"nx": 32, "nv": 32, "t_end": 1.0}),
    "two_stream": ("two_stream", {"nx": 32, "nv": 32, "t_end": 5.0}),
    "bump_on_tail": ("bump_on_tail", {"nx": 32, "nv": 32, "t_end": 5.0}),
    "kelvin_helmholtz": ("kelvin_helmholtz", {"nx": 32, "nv": 32, "t_end": 5.0}),
    "hill": ("hill", {"nx": 32, "nv": 32, "t_end": 10 * 2.0 * math.pi / 25.0}),
    "landau_hybrid_T3": ("landau", {"nx": 32, "nv": 32, "t_end": 0.9,
                                    "scheme": "hybrid", "T": 3}),
    "kelvin_helmholtz_bsl": ("kelvin_helmholtz", {"nx": 16, "nv": 16, "t_end": 5.0,
                                                  "scheme": "bsl"}),
}

RTOL = 1e-12
FLOOR = 1e-13


def fingerprint(name):
    """{channel: [final value, largest |value| over the run]} of one run."""
    case, overrides = RUNS[name]
    res = solver.run(cases.apply_overrides(cases.case_defaults(case), overrides))
    return {ch: [float(v[-1]), float(np.nanmax(np.abs(v)))]
            for ch, v in res.channels.items()}


def _goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)


def test_goldens_cover_every_run():
    assert sorted(_goldens()) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_final_values_match_goldens(name):
    gold = _goldens()[name]
    got = fingerprint(name)
    assert sorted(got) == sorted(gold)
    l2_scale = gold["l2"][1]
    for ch, (value, scale) in gold.items():
        tol = RTOL * abs(value) + FLOOR * max(scale, l2_scale)
        assert abs(got[ch][0] - value) <= tol, (
            f"{name}.{ch}: {got[ch][0]!r} vs golden {value!r} (tol {tol:.3g})"
        )


if __name__ == "__main__":
    with open(GOLDENS, "w") as fh:
        json.dump({name: fingerprint(name) for name in sorted(RUNS)}, fh, indent=1)
        fh.write("\n")

"""tools/compare_series.py: the pass rule |old - new| <= rtol * scale + atol
per channel, the config echo and the worst-case row, on canned series (no
subprocess)."""

import importlib.util
import re
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_series", Path(__file__).resolve().parents[1] / "tools" / "compare_series.py")
compare_series = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_series)

NAN = float("nan")


def _runs(energy, roundoff, snap, config="case = kh\n"):
    """One run of a channel of scale 200, one of scale 1e-15 and a snapshot."""
    return {"kh": {"energy": [200.0, 100.0], "mass": [1e-15, roundoff],
                   "snapshots": [[[1.0, snap]]], "config": config},
            "hill": {"energy": [0.5, energy], "config": "case = hill\n"}}


OLD = _runs(0.25, -1e-15, 2.0)


@pytest.mark.parametrize("new, rtol, atol, ok", [
    (_runs(0.25, -1e-15, 2.0), 0.0, 0.0, True),          # bit for bit
    (_runs(0.25, -2e-15, 2.0), 0.0, 0.0, False),         # the default is exact
    (_runs(0.25, -2e-15, 2.0), 1e-12, 0.0, False),       # round-off relative to 1e-15
    (_runs(0.25, -2e-15, 2.0), 1e-12, 1e-13, True),      # ... which atol covers
    (_runs(0.25 + 4e-13, -1e-15, 2.0), 1e-12, 0.0, True),      # 4e-13 <= 1e-12 x 0.5
    (_runs(0.25 + 5.5e-13, -1e-15, 2.0), 1e-12, 0.0, False),   # 5.5e-13 > 1e-12 x 0.5
    (_runs(0.25 + 5.5e-13, -1e-15, 2.0), 1e-12, 1e-13, True),  # <= 5e-13 + 1e-13
    (_runs(0.25, -1e-15, 2.0 + 1e-11), 1e-12, 1e-13, False),  # a snapshot column fails too
    (_runs(0.25, NAN, 2.0), 1.0, 1.0, False),            # NaN where the old run had none
    (_runs(0.25, -1e-15, 2.0, "case = hill\n"), 1.0, 1.0, False),  # the echo differs
])
def test_pass_rule(new, rtol, atol, ok, capsys):
    assert compare_series.report(OLD, new, rtol, atol) is ok
    assert capsys.readouterr().out.strip().splitlines()[-1].endswith("ok" if ok else "FAIL")


def _cells(row):
    """{channel: (relative, absolute difference)} and the config flag of a row."""
    cells = {k: (float(r), float(d)) for k, r, d in re.findall(r"(\S+) (\S+) \((\S+)\)", row)}
    return cells, int(row.split("config ")[1])


def test_rows_and_worst_case(capsys):
    new = _runs(0.25 + 1e-13, -1e-15, 2.0 + 4e-12, "case = hill\n")
    compare_series.report(OLD, new)
    rows = capsys.readouterr().out.strip().splitlines()
    assert [r.split()[0] for r in rows[:3]] == ["kh", "hill", "worst"]
    assert _cells(rows[2]) == ({"energy": pytest.approx((2e-13, 1e-13)), "mass": (0.0, 0.0),
                                "snapshots": pytest.approx((2e-12, 4e-12))}, 1)
    assert rows[3:5] == ["past: kh snapshots |diff| 4e-12 allowed 0",
                         "past: hill energy |diff| 1e-13 allowed 0"]
    assert rows[5].startswith("2 channels past rtol 0 x scale + atol 0, 1 config echoes")


def test_absolute_difference_beside_relative(capsys):
    """A round-off channel reads a large relative difference; the absolute
    one beside it shows the size.  The worst row takes each column's
    largest relative and largest absolute difference, run by run."""
    new = _runs(0.25 + 1e-13, -2e-15, 2.0)
    compare_series.report(OLD, new)
    kh, hill, worst = capsys.readouterr().out.strip().splitlines()[:3]
    assert _cells(kh) == ({"energy": (0.0, 0.0), "mass": pytest.approx((1.0, 1e-15)),
                           "snapshots": (0.0, 0.0)}, 0)
    assert _cells(hill) == ({"energy": pytest.approx((2e-13, 1e-13))}, 0)
    assert _cells(worst)[0] == {"energy": pytest.approx((2e-13, 1e-13)),
                                "mass": pytest.approx((1.0, 1e-15)), "snapshots": (0.0, 0.0)}


def test_failing_channels_are_named(capsys):
    """Each failing channel gets its run, |diff| and allowed difference, in
    run order; channels that pass and an echo that differs get no line."""
    new = _runs(0.25 + 8e-13, NAN, 2.0 + 4e-12, "case = hill\n")
    assert not compare_series.report(OLD, new, 1e-12, 1e-13)
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[3:-1] == ["past: kh mass |diff| inf allowed 1.1e-12",  # NaN: scale 1
                          "past: kh snapshots |diff| 4e-12 allowed 2.1e-12",
                          "past: hill energy |diff| 8e-13 allowed 6e-13"]
    assert rows[-1].startswith("3 channels past")


def test_main_exit_status(monkeypatch, capsys):
    trees = {"old": OLD, "new": _runs(0.25, -2e-15, 2.0)}
    monkeypatch.setattr(compare_series, "series_of", lambda path: trees[path])
    assert compare_series.main(["old", "new", "--rtol", "1e-12"]) == 1
    assert compare_series.main(["old", "new", "--rtol", "1e-12", "--atol", "1e-13"]) == 0
    assert compare_series.main(["old", "old"]) == 0


def test_every_run_snapshots_mid_run_and_at_its_end():
    """Each run's snapshot_every divides its step count and is below it, so
    the snapshots column compares a mid-run f and the last f; a hybrid run
    also snapshots between remaps."""
    from fslvlasov import cases

    for label, case, overrides in compare_series.CONFIGS:
        cfg = cases.apply_overrides(cases.case_defaults(case), overrides)
        n, every = cfg.n_steps(), cfg.snapshot_every
        assert n % every == 0 and every < n, label
        if cfg.scheme == "hybrid":
            assert any(s % cfg.T for s in range(every, n + 1, every)), label

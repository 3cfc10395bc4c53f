"""tools/bench_pairs.py: the pair statistics and the failure exit, with the
perfbench runs replaced by canned results (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ROOT = str(Path(__file__).resolve().parents[1])


def _result(p50, rss, correct=True, failed=0):
    metrics = {name: {"value": 1.0} for name, _ in bench_pairs.end_to_end_metrics(ROOT)}
    metrics["step_ms_p50"] = {"value": p50}
    metrics["peak_rss_mb"] = {"value": rss}
    return {"correct": correct, "failed": failed, "metrics": metrics}


def _fake_runs(monkeypatch, results):
    calls = []

    def run_once(tree, workload, seconds, seed):
        calls.append(tree)
        return results[len(calls) - 1]

    metrics = bench_pairs.end_to_end_metrics(ROOT)
    monkeypatch.setattr(bench_pairs, "end_to_end_metrics", lambda tree: metrics)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def test_pairs_alternate_and_count_wins(monkeypatch, capsys):
    # runs in call order: pair 0 old, new; pair 1 new, old; pair 2 old, new
    calls = _fake_runs(monkeypatch, [
        _result(10.0, 80.0), _result(9.0, 81.0),
        _result(9.5, 81.0), _result(10.5, 80.0),
        _result(11.0, 80.0), _result(11.5, 81.0),
    ])
    code = bench_pairs.main(["old", "new", "--workload", "kelvin_helmholtz", "--pairs", "3"])
    assert code == 0
    assert [Path(c).name for c in calls] == ["old", "new", "new", "old", "old", "new"]
    out = capsys.readouterr().out
    p50 = next(line for line in out.splitlines() if line.startswith("step_ms_p50"))
    assert "old         10.5" in p50 and "new          9.5" in p50
    assert "new better 2/3 (lower)" in p50
    rss = next(line for line in out.splitlines() if line.startswith("peak_rss_mb"))
    assert "new better 0/3 (lower)" in rss


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}])
def test_incorrect_or_failed_run_exits_1(monkeypatch, capsys, bad):
    _fake_runs(monkeypatch, [_result(10.0, 80.0), _result(9.0, 80.0, **bad)])
    assert bench_pairs.main(["old", "new", "--workload", "hill", "--pairs", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out

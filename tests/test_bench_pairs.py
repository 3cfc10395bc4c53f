"""tools/bench_pairs.py: the pair statistics and the failure exit, with the
perfbench runs replaced by canned results (no subprocess)."""

import importlib.util
import json
import subprocess
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


def _probed(result, ms):
    return dict(result, probe_ms=[ms, ms + 0.5], probe_ref_ms=9.0)


def test_json_records_trees_runs_and_medians(monkeypatch, tmp_path):
    _fake_runs(monkeypatch, [
        _probed(_result(10.0, 80.0), 9.0), _probed(_result(9.0, 81.0), 9.2),
        _probed(_result(9.5, 81.0), 9.1), _probed(_result(10.5, 80.0, failed=1), 9.3),
        _probed(_result(11.0, 80.0), 9.4), _probed(_result(8.5, 82.0), 9.5),
        _probed(_result(7.0, 80.0), 9.6), _probed(_result(6.0, 80.0), 9.7),
    ])
    path = tmp_path / "BENCH_test.json"
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    code = bench_pairs.main([old, new, "--workload", "kelvin_helmholtz", "--pairs", "3",
                             "--json", str(path)])
    assert code == 1  # the failed run still fails the comparison
    doc = json.loads(path.read_text())
    assert doc["trees"] == {"old": {"path": old, "commit": "unknown", "dirty": None},
                            "new": {"path": new, "commit": "unknown", "dirty": None}}
    kh = doc["workloads"]["kelvin_helmholtz"]
    assert (kh["pairs"], kh["seconds"], kh["seed"], kh["ok"]) == (3, 35, 0, False)
    assert [(r["pair"], r["tree"]) for r in kh["runs"]] == [
        (0, "old"), (0, "new"), (1, "new"), (1, "old"), (2, "old"), (2, "new")]
    assert [r["failed"] for r in kh["runs"]] == [0, 0, 0, 1, 0, 0]
    assert all(r["correct"] is True for r in kh["runs"])
    assert kh["runs"][3]["probe_ms"] == [9.3, 9.8] and kh["runs"][3]["probe_ref_ms"] == 9.0
    assert kh["runs"][1]["metrics"]["step_ms_p50"] == 9.0
    # old p50 10.0, 10.5, 11.0; new 9.0, 9.5, 8.5
    assert kh["metrics"]["step_ms_p50"] == {
        "better": "lower", "old_median": 10.5, "new_median": 9.0, "old_iqr": 0.5,
        "new_better_pairs": 3, "pairs": 3}
    assert kh["metrics"]["peak_rss_mb"]["new_better_pairs"] == 0
    # a second workload joins the same file; other trees are refused
    assert bench_pairs.main([old, new, "--workload", "hill", "--pairs", "1",
                             "--json", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert set(doc["workloads"]) == {"kelvin_helmholtz", "hill"}
    assert doc["workloads"]["hill"]["metrics"]["step_ms_p50"]["old_median"] == 7.0
    with pytest.raises(SystemExit, match="other trees"):
        bench_pairs.main([old, str(tmp_path / "other"), "--workload", "hill",
                          "--json", str(path)])


def test_git_state_reads_commit_and_dirty_flag(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    assert bench_pairs.git_state(str(tree)) == {"commit": "unknown", "dirty": None}
    (tree / "f.txt").write_text("a\n")
    for cmd in (["init", "-q"], ["add", "f.txt"],
                ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "a"]):
        subprocess.run(["git", *cmd], cwd=tree, check=True, capture_output=True)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.git_state(str(tree)) == {"commit": head, "dirty": False}
    (tree / "f.txt").write_text("b\n")
    assert bench_pairs.git_state(str(tree)) == {"commit": head, "dirty": True}

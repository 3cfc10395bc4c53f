"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from fslvlasov import pushers, solver  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: exact per-step counts of the traced run: kh / bump_on_tail / hill
EXACT_COUNTS = {
    "pushers.field_solves_per_step": (4, 4, 0),
    "solver.diag_solve.calls_per_step": (1, 1, 0),
    "deposition.diag.calls_per_step": (0, 1, 0),
    "splines.gather.calls_per_step": (8, 4, 0),
    "field2d.potential.calls_per_step": (5, 0, 0),
    "field2d.ex.calls_per_step": (5, 0, 0),
    "field2d.ey.calls_per_step": (5, 0, 0),
    "field2d.solve.calls_per_step": (4, 0, 0),
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_emits_every_metric(trace):
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    units = {m["name"]: m["unit"] for m in spec}
    for column, workload in enumerate(w["name"] for w in SPEC["workloads"]):
        out = _bench("--workload", workload, "--seed", "0", "--seconds", "4",
                     "--trace", str(trace), "--grid", str(worker.SMOKE_GRID))
        assert out.returncode == 0, out.stderr
        info = json.loads(out.stdout.splitlines()[-2])["info"]
        result = json.loads(out.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], info["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        if trace == 0:
            named = "xrms_err" if workload == "hill" else "energy_drift"
            assert info["quality"][named] == result["metrics"]["physics_err"]["value"]
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            for name, counts in EXACT_COUNTS.items():
                assert result["metrics"][name]["value"] == counts[column], (workload, name)


def test_fingerprint_rejects_a_perturbed_channel():
    name = "kelvin_helmholtz"
    cfg = worker.workload_config(name, 0, worker.SMOKE_GRID)
    entry = worker.load_fingerprint(worker.fingerprint_key(name, worker.SMOKE_GRID))
    result = solver.run(cfg)
    assert worker.check(name, 0, cfg, result, entry)[1] == []
    for channel in ("l2", "energy", "enstrophy"):
        for rel, rejected in ((1e-6, True), (1e-13, False)):
            perturbed = dict(result.channels)
            perturbed[channel] = result.channels[channel] * (1.0 + rel)
            problems = worker.fingerprint_mismatches(entry, perturbed)
            assert bool(problems) == rejected, (channel, rel, problems)


def test_wrappers_restore_module_attributes():
    sites = spans.resolve({**spans.STEP_SPANS, **spans.SETUP_SPANS})
    before = [(m, n, getattr(m, n)) for m, n, _ in sites]
    before += [(solver, n, getattr(solver, n)) for n in ("init", "step")]
    dict_values = {id(v): dict(v) for _, _, v in before if isinstance(v, dict)}
    cfg = worker.workload_config("bump_on_tail", 0, worker.SMOKE_GRID)
    _, sim = worker.simulate(cfg, traced=True)
    assert sim.tracer.get("step", "deposition.stage").calls > 0
    with pytest.raises(ZeroDivisionError):
        with spans.patched([(m, n, None) for m, n, _ in before]):
            1 / 0
    for module, name, value in before:
        assert getattr(module, name) is value, (module.__name__, name)
        if isinstance(value, dict):
            assert value == dict_values[id(value)]


def test_missing_call_site_is_an_error(monkeypatch):
    monkeypatch.delattr(pushers, "deposit_density_2d")
    found = {n for m, n, s in spans.resolve(spans.STEP_SPANS) if s == "deposition.stage"}
    assert found == {"deposit_charge"}
    monkeypatch.delattr(pushers, "deposit_charge")
    with pytest.raises(spans.TraceError, match="deposition.stage"):
        spans.resolve(spans.STEP_SPANS)


def test_nonzero_seeds_draw_amplitudes_in_range():
    base = worker.workload_config("hill", 0)
    for seed in range(1, 20):
        cfg = worker.workload_config("hill", seed)
        assert cfg == worker.workload_config("hill", seed)
        assert abs(cfg.a_eps / base.a_eps - 1.0) <= worker.AMPLITUDE_SPREAD
        assert cfg.a_eps != base.a_eps


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "hill", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_workload_lists_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(run.workloads()) == names
    assert sorted(worker.WORKLOADS) == sorted(names)


def test_no_run_result_outlives_its_check(monkeypatch):
    kept = []
    real_run = solver.run

    def recording_run(cfg):
        result = real_run(cfg)
        kept.append(weakref.ref(result))
        return result

    monkeypatch.setattr(solver, "run", recording_run)
    result, _ = worker.measure("bump_on_tail", 0, 1.0, False, worker.SMOKE_GRID)
    gc.collect()
    assert result["attempted"] >= 1 and len(kept) == result["attempted"]
    assert all(ref() is None for ref in kept)


def test_peak_rss_does_not_grow_with_run_length():
    peaks = []
    for seconds in ("3", "10"):
        out = _bench("--workload", "hill", "--seed", "0", "--seconds", seconds, "--trace", "0")
        assert out.returncode == 0, out.stderr
        info = json.loads(out.stdout.splitlines()[-2])["info"]
        peaks.append((info["simulations"],
                      json.loads(out.stdout.splitlines()[-1])["metrics"]["peak_rss_mb"]["value"]))
    (short_sims, short), (long_sims, long) = peaks
    assert long_sims > short_sims
    assert abs(long / short - 1.0) < 0.02, peaks


def _traced_and_plain(workload, grid=worker.SMOKE_GRID):
    cfg = worker.workload_config(workload, 0, grid)
    return [worker.simulate(cfg, traced)[1] for traced in (True, False)]


def test_trace_check_fails_on_a_double_wrapped_span(monkeypatch):
    real_wrap = spans.Tracer.wrap

    def wrap_gather_twice(self, span, fn):
        if span == "splines.gather":
            fn = real_wrap(self, span, fn)
        return real_wrap(self, span, fn)

    monkeypatch.setattr(spans.Tracer, "wrap", wrap_gather_twice)
    _, problems = worker.per_layer(_traced_and_plain("kelvin_helmholtz"))
    assert any("wrapped twice" in p and "splines.gather" in p for p in problems), problems


def test_trace_check_fails_when_spans_miss_step_work(monkeypatch):
    uncovered = {k: v for k, v in spans.STEP_SPANS.items() if k != "deposition.remap"}
    monkeypatch.setattr(spans, "STEP_SPANS", uncovered)
    _, problems = worker.per_layer(_traced_and_plain("hill", grid=None))
    assert any("unattributed time" in p for p in problems), problems


def test_worker_timeout_covers_the_budget():
    for seconds in (1, 35, 300):
        assert run.worker_timeout(seconds) >= seconds + 120

"""One benchmark run of one workload, in the current process.

``run.py`` starts this file in a fresh process with one BLAS and OpenMP
thread and ``PYTHONPATH`` pointing at the checkout's ``src``.  Each
simulation is a call of ``fslvlasov.solver.run`` on the workload's
``CaseConfig``; simulations repeat until ``--seconds`` is used up.  Hooks
on ``solver.init`` and ``solver.step`` time set-up and every
step (a step sample is one ``solver.step`` plus its diagnostics row).
Every simulation is checked: at seed 0 against the stored fingerprint,
at every seed against the quality limits.

Regenerate the stored fingerprints (only when the physics is meant to
change) with ``python3 perfbench/worker.py --write-fingerprints``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (benchmark-local modules)
from probe import PROBE_REF_MS, Probe  # noqa: E402
from fslvlasov import cases, hill, solver  # noqa: E402

FINGERPRINT_FILE = HERE / "fingerprint.json"

#: grid of the tiny smoke variant of every workload (the tests use it)
SMOKE_GRID = 16

#: seeds other than 0 scale the perturbation amplitude by 1 + u, with u
#: uniform in [-AMPLITUDE_SPREAD, AMPLITUDE_SPREAD]: same regime, and the
#: drift metrics move by about twice that share
AMPLITUDE_SPREAD = 0.02

#: a channel's final value matches when it is within
#: RTOL * max_t |channel(t)| + ATOL of the stored one.  Perturbing the
#: input amplitude by 1e-12 relative moves no final by more than 2.3e-10
#: (1.3e-12 of its channel scale), so a reassociation of the arithmetic
#: passes; a changed cubic weight or a skipped push stage moves the finals
#: by 1e-4 of their scale or more.  ATOL covers channels that are
#: differences of large sums or pure round-off, such as the mass lost at
#: the walls and the guiding-center mass (about 1e-15).
RTOL = 1e-9
ATOL = 1e-10

#: l2_drift and physics_err may reach this multiple of their seed-0 values
QUALITY_FACTOR = 2.0

#: the step-time tail is the median over simulations of each simulation's
#: 95th percentile.  The tail of all steps pooled rests on the simulations
#: during which the host changed speed, since one probe factor cannot
#: rescale both parts of such a simulation; the median discards them.
TAIL_PERCENTILE = 95.0

#: the traced step wall that no span covers (the glue of solver.step and
#: of the run loop, about 0.1 ms a step at every grid size) may be at most
#: this share of it, or this many ms a step where that is more.  Step work
#: that no span lists, such as a kernel called under a new name, exceeds it.
UNATTRIBUTED_MAX_SHARE = 0.05
UNATTRIBUTED_MAX_MS = 0.3

#: seconds of set-up timed after each simulation (at least one set-up)
SETUP_BATCH_S = 0.1


@dataclass(frozen=True)
class Workload:
    t_end: float
    amplitude: str            # CaseConfig field that the seed perturbs
    energy: Optional[str]     # energy channel; None: xrms against the envelope


WORKLOADS = {
    "kelvin_helmholtz": Workload(15.0, "eps", "energy"),
    "bump_on_tail": Workload(50.0, "alpha", "total_energy"),
    "hill": Workload(4.0 * np.pi, "a_eps", None),
}


def workload_config(name: str, seed: int, grid: Optional[int] = None):
    """The CaseConfig of a workload (named after its case): seed 0 is the
    case default."""
    w = WORKLOADS[name]
    default = cases.case_defaults(name)
    overrides = {"t_end": w.t_end, "scheme": "fsl", "diag_every": 1}
    if grid is not None:
        overrides.update(nx=grid, nv=grid)
    if seed != 0:
        u = np.random.default_rng(seed).uniform(-AMPLITUDE_SPREAD, AMPLITUDE_SPREAD)
        overrides[w.amplitude] = getattr(default, w.amplitude) * (1.0 + u)
    return cases.apply_overrides(default, overrides)


def fingerprint_key(name: str, grid: Optional[int]) -> str:
    return name if grid is None else f"{name}@{grid}"


# ---------------------------------------------------------------------------
# physics checks


def _relative_drift(series) -> float:
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


_XRMS_REFERENCE = {}


def quality(name: str, cfg, result) -> dict:
    """l2_drift, and energy_drift or xrms_err as physics_err."""
    w = WORKLOADS[name]
    out = {"l2_drift": _relative_drift(result.channel("l2"))}
    if w.energy is not None:
        out["energy_drift"] = _relative_drift(result.channel(w.energy))
        out["physics_err"] = out["energy_drift"]
    else:
        key = (cfg, result.times.tobytes())
        if key not in _XRMS_REFERENCE:
            env = hill.hill_envelope(cases.hill_coefficient(cfg), result.times, cfg.omega0)
            _XRMS_REFERENCE[key] = hill.hill_reference_xrms(env)
        ref = _XRMS_REFERENCE[key]
        out["xrms_err"] = float(np.max(np.abs(result.channel("xrms") - ref) / ref))
        out["physics_err"] = out["xrms_err"]
    return out


def fingerprint_of(cfg, result) -> dict:
    return {
        "config": cases.format_config(cfg),
        "final": {c: float(v[-1]) for c, v in result.channels.items()},
        "scale": {c: float(np.max(np.abs(v))) for c, v in result.channels.items()},
    }


def fingerprint_mismatches(entry: dict, channels: dict) -> list[str]:
    """Channels whose final value misses the stored one."""
    out = []
    for name, ref in entry["final"].items():
        if name not in channels:
            out.append(f"{name}: channel missing")
            continue
        got = float(channels[name][-1])
        tol = RTOL * entry["scale"][name] + ATOL
        if not abs(got - ref) <= tol:
            out.append(f"{name}: final {got!r} vs stored {ref!r} (tolerance {tol:.3g})")
    return out


def load_fingerprint(key: str) -> dict:
    with open(FINGERPRINT_FILE) as fh:
        entries = json.load(fh)
    if key not in entries:
        raise SystemExit(f"no stored fingerprint for {key!r}")
    return entries[key]


def check(name: str, seed: int, cfg, result, entry: dict) -> tuple[dict, list[str]]:
    """Quality metrics of one simulation and the list of its problems."""
    problems = []
    for c, v in result.channels.items():
        if not np.all(np.isfinite(v)):
            problems.append(f"{c}: non-finite values")
    if len(result.times) != cfg.n_steps() + 1:
        problems.append(f"{len(result.times) - 1} steps, expected {cfg.n_steps()}")
    if seed == 0:
        if entry["config"] != cases.format_config(cfg):
            problems.append("config differs from the one the fingerprint was made with")
        problems += fingerprint_mismatches(entry, result.channels)
    q = quality(name, cfg, result)
    for metric in ("l2_drift", "physics_err"):
        if not q[metric] <= QUALITY_FACTOR * entry[metric]:
            problems.append(
                f"{metric} {q[metric]:.4g} above {QUALITY_FACTOR} x seed-0 {entry[metric]:.4g}"
            )
    return q, problems


# ---------------------------------------------------------------------------
# timed simulations


@dataclass
class Sim:
    """What the metrics use of one simulation.  The RunResult itself is
    not kept, so that the peak RSS is that of one solver.run."""
    init_s: float
    steps_s: np.ndarray       # wall time of each step plus its diagnostics row
    loop_s: float             # solver.run wall minus set-up
    tracer: Optional[spans.Tracer]
    n_nodes: int              # phase-space nodes advanced per step
    solves: int               # provider.solves: field solves of the pushers
    minflt: int               # minor page faults from the first step to the end
    stime_s: float            # system CPU time from the first step to the end
    scale: float = 1.0        # PROBE_REF_MS / probe time around the simulation


def simulate(cfg, traced: bool):
    """(RunResult, Sim) of one solver.run with set-up and per-step timing
    hooks installed."""
    tracer = spans.Tracer() if traced else None
    init, step = solver.init, solver.step
    init_s, marks, usage = [], [], []

    def set_phase(phase):
        if tracer is not None:
            tracer.phase = phase

    def timed_init(config):
        set_phase("setup")
        t0 = perf_counter()
        try:
            return init(config)
        finally:
            init_s.append(perf_counter() - t0)
            set_phase(None)

    def timed_step(state):
        if not marks:
            usage.append(resource.getrusage(resource.RUSAGE_SELF))
        marks.append(perf_counter())
        set_phase("step")
        return step(state)

    patches = [(solver, "init", timed_init), (solver, "step", timed_step)]
    if traced:
        patches += spans.span_replacements(tracer, spans.STEP_SPANS)
        patches += spans.span_replacements(tracer, spans.SETUP_SPANS)
    with spans.patched(patches):
        t0 = perf_counter()
        try:
            result = solver.run(cfg)
        finally:
            end = perf_counter()
            set_phase(None)
    marks.append(end)
    after = resource.getrusage(resource.RUSAGE_SELF)
    state = result.state
    sim = Sim(init_s[0], np.diff(marks), end - t0 - init_s[0], tracer,
              state.g1.n_nodes * state.g2.n_nodes, state.provider.solves,
              after.ru_minflt - usage[0].ru_minflt, after.ru_stime - usage[0].ru_stime)
    return result, sim


def _time_setup(cfg, budget_s=0.5, min_reps=3, max_reps=10000) -> list[float]:
    out = []
    start = perf_counter()
    while len(out) < min_reps or (
        len(out) < max_reps and perf_counter() - start < budget_s
    ):
        t0 = perf_counter()
        solver.init(cfg)
        out.append(perf_counter() - t0)
    return out


def _warm_up(cfg):
    state = solver.init(cfg)
    for _ in range(3):
        solver.step(state)
        solver.diag_row(state)


# ---------------------------------------------------------------------------
# metrics; every time is rescaled by its simulation's probe factor


def end_to_end(sims: list[Sim], setup_batches: list[list[float]], q: dict) -> tuple[dict, dict]:
    scaled = [s.steps_s * s.scale for s in sims]
    steps = np.concatenate(scaled)
    sim_p50 = [float(np.median(x)) for x in scaled]
    tail = float(np.median([np.percentile(x, TAIL_PERCENTILE) for x in scaled]))
    values = {
        "step_ms_p50": (1e3 * float(np.median(sim_p50)), "ms"),
        "step_ms_tail": (1e3 * tail, "ms"),
        "cell_steps_per_s": (
            sims[0].n_nodes * steps.size / sum(s.loop_s * s.scale for s in sims), "1/s"
        ),
        "setup_s": (float(np.median([np.median(b) for b in setup_batches])), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "l2_drift": (q["l2_drift"], "ratio"),
        "physics_err": (q["physics_err"], "ratio"),
    }
    info = {
        "step_samples": int(steps.size),
        "step_ms_tail_percentile": TAIL_PERCENTILE,
        "step_samples_beyond_tail": int(np.sum(steps > tail)),
        "setup_samples": sum(len(b) for b in setup_batches),
        "setup_batches": len(setup_batches),
        "simulation_step_ms_p50": [round(1e3 * v, 3) for v in sim_p50],
        "simulation_scale": [round(s.scale, 4) for s in sims],
        "unscaled_step_ms_p50": 1e3 * float(np.median(np.concatenate([s.steps_s for s in sims]))),
        **{k: v for k, (v, _) in allocation(sims).items()},
    }
    return values, info


def allocation(sims: list[Sim]) -> dict:
    """Minor page faults and unscaled system time per step: what the
    kernel spends mapping the step's temporaries."""
    n_steps = sum(s.steps_s.size for s in sims)
    return {
        "process.minor_faults_per_step": (sum(s.minflt for s in sims) / n_steps, "faults/step"),
        "process.sys_ms_per_step": (1e3 * sum(s.stime_s for s in sims) / n_steps, "ms/step"),
    }


def _count_signature(sim: Sim):
    calls = {span: sim.tracer.get("step", span).calls for span in spans.STEP_SPANS}
    return calls, sim.solves, sim.steps_s.size


def per_layer(sims: list[Sim]) -> tuple[dict, list[str]]:
    traced = [s for s in sims if s.tracer is not None]
    plain = [s for s in sims if s.tracer is None]
    problems = []
    signatures = [_count_signature(s) for s in traced]
    if any(sig != signatures[0] for sig in signatures[1:]):
        problems.append(f"exact counts differ between traced simulations: {signatures}")

    def total(phase, span, field):
        return sum(getattr(s.tracer.get(phase, span), field) * s.scale for s in traced)

    n_steps = sum(s.steps_s.size for s in traced)
    wall = sum(float(np.sum(s.steps_s)) * s.scale for s in traced)
    values = {}
    total_self = 0.0
    for span in spans.STEP_SPANS:
        self_s = total("step", span, "self_s")
        total_self += self_s
        calls = sum(s.tracer.get("step", span).calls for s in traced)
        values[f"{span}.self_ms_per_step"] = (1e3 * self_s / n_steps, "ms/step")
        values[f"{span}.calls_per_step"] = (calls / n_steps, "calls/step")
        if span in spans.PARTICLE_ARG:
            particles = sum(s.tracer.get("step", span).particles for s in traced)
            rate = particles / self_s / 1e6 if self_s > 0 else 0.0
            values[f"{span}.mparticles_per_s"] = (rate, "Mparticles/s")
    incl = total("step", "solver.diag_solve", "incl_s")
    values["solver.diag_solve.incl_ms_per_step"] = (1e3 * incl / n_steps, "ms/step")
    # the step wall comes from the solver.step hook, independent of the spans
    unattributed = wall - total_self
    allowed = max(UNATTRIBUTED_MAX_SHARE * wall, 1e-3 * UNATTRIBUTED_MAX_MS * n_steps)
    if not 0.0 <= unattributed <= allowed:
        problems.append(
            f"spans cover {total_self:.6f} s of the traced step wall {wall:.6f} s; "
            f"the unattributed time must lie in [0, {allowed:.6f}] s"
        )
    nested = sorted(set().union(*(s.tracer.self_nested for s in traced)))
    if nested:
        problems.append(f"spans wrapped twice at a call site: {', '.join(nested)}")
    values["solver.unattributed_ms_per_step"] = (1e3 * unattributed / n_steps, "ms/step")
    solves = sum(s.solves for s in traced)
    values["pushers.field_solves_per_step"] = (solves / n_steps, "solves/step")
    for span in spans.SETUP_SPANS:
        self_s = total("setup", span, "self_s")
        values[f"{span}.self_ms_per_setup"] = (1e3 * self_s / len(traced), "ms/setup")
    traced_p50 = np.median([np.median(s.steps_s) * s.scale for s in traced])
    plain_p50 = np.median([np.median(s.steps_s) * s.scale for s in plain])
    values["trace_overhead_pct"] = (100.0 * (traced_p50 / plain_p50 - 1.0), "%")
    values.update(allocation(plain))
    return values, problems


# ---------------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool,
            grid: Optional[int] = None) -> tuple[dict, dict]:
    """Run simulations of one workload for ``seconds``; (result, info)."""
    cfg = workload_config(name, seed, grid)
    entry = load_fingerprint(fingerprint_key(name, grid))
    host = Probe()
    host.ms()
    probe_ms = [host.ms()]
    setup_raw = _time_setup(cfg)
    probe_ms.append(host.ms())
    scale = PROBE_REF_MS / np.mean(probe_ms)
    # set-up is timed in batches spread over the run, one after each
    # simulation, so that no single state of the host sets its median
    setup_batches = [[t * scale for t in setup_raw]]
    _warm_up(cfg)
    # traced runs alternate traced and untraced simulations, starting
    # traced, so that the counts repeat and the overhead has a base
    min_sims = 3 if trace else 1
    sims, problems, q = [], [], None
    attempted = failed = 0
    start = perf_counter()
    while True:
        traced = trace and attempted % 2 == 0
        t0 = perf_counter()
        attempted += 1
        try:
            run_result, sim = simulate(cfg, traced)
        except spans.TraceError:
            raise
        except Exception as err:  # a failed run is counted, not fatal
            failed += 1
            problems.append(f"simulation {attempted}: {type(err).__name__}: {err}")
            run_result = sim = None
        batch = _time_setup(cfg, SETUP_BATCH_S, min_reps=1)
        probe_ms.append(host.ms())
        scale = PROBE_REF_MS / np.mean(probe_ms[-2:])
        setup_batches.append([t * scale for t in batch])
        if sim is not None:
            sim.scale = scale
            # a simulation with wrong results still yields valid timings
            sim_q, sim_problems = check(name, seed, cfg, run_result, entry)
            run_result = None
            if sim_problems:
                failed += 1
                problems += [f"simulation {attempted}: {p}" for p in sim_problems]
            sims.append(sim)
            setup_batches[-1].append(sim.init_s * scale)
            q = q or sim_q
        elapsed = perf_counter() - start
        if attempted >= min_sims and elapsed + (perf_counter() - t0) > seconds:
            break
    info = {
        "workload": name, "seed": seed, "trace": int(trace),
        "amplitude": {WORKLOADS[name].amplitude: getattr(cfg, WORKLOADS[name].amplitude)},
        "grid": [cfg.nx, cfg.nv], "t_end": cfg.t_end, "steps_per_simulation": cfg.n_steps(),
        "simulations": attempted, "problems": problems,
        "probe_ms": [round(v, 3) for v in probe_ms], "probe_ref_ms": PROBE_REF_MS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
    }
    good_traced = any(s.tracer is not None for s in sims)
    good_plain = any(s.tracer is None for s in sims)
    if not sims or (trace and not (good_traced and good_plain)):
        info["error"] = "no completed simulation to take metrics from"
        return None, info
    if trace:
        values, trace_problems = per_layer(sims)
        problems += trace_problems
    else:
        values, extra = end_to_end(sims, setup_batches, q)
        info.update(extra)
        info["quality"] = {k: v for k, v in q.items() if k != "physics_err"}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return result, info


def write_fingerprints():
    """Store seed-0 fingerprints of every workload, full size and smoke size."""
    entries = {}
    for name in WORKLOADS:
        for grid in (None, SMOKE_GRID):
            cfg = workload_config(name, 0, grid)
            result = solver.run(cfg)
            entry = fingerprint_of(cfg, result)
            q = quality(name, cfg, result)
            entry["l2_drift"] = q["l2_drift"]
            entry["physics_err"] = q["physics_err"]
            entries[fingerprint_key(name, grid)] = entry
            print(fingerprint_key(name, grid), json.dumps(q), flush=True)
    with open(FINGERPRINT_FILE, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_import_location():
    src = (HERE.parent / "src").resolve()
    where = Path(solver.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"fslvlasov imported from {where}, not from {src}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--grid", type=int, choices=(SMOKE_GRID,))
    ap.add_argument("--write-fingerprints", action="store_true")
    args = ap.parse_args(argv)
    _check_import_location()
    if args.write_fingerprints:
        write_fingerprints()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, info = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.grid
        )
    except spans.TraceError as err:
        print(f"trace error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"info": info}), flush=True)
    if result is None:
        print(f"error: {info['error']}; {info['problems']}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

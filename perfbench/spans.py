"""Per-module spans for the traced benchmark run.

A span wraps a function at the place where the calling module looks it
up, as a module attribute such as ``fslvlasov.pushers.eval_2d``, so it
times exactly the calls one module makes into another.  A span's self
time is its wall time minus the wall time of the spans nested inside it.
Spans are recorded only while ``Tracer.phase`` names a phase; calls made
outside any phase run unwrapped work at the cost of one attribute check.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "fslvlasov"

#: span -> ((calling module, candidate attribute names), ...).  Every call
#: site must resolve at least one candidate.  Several candidates are listed
#: where a call site may switch between equivalent functions, e.g. the
#: pushers' 2D deposit once the ``deposit_density_2d`` alias is removed.
#: A dict-valued attribute (the pusher tables) has each of its values wrapped.
STEP_SPANS = {
    "pushers.push": (("solver", ("VP_PUSHERS", "GC_PUSHERS")),),
    "splines.gather": (("pushers", ("eval_1d", "eval_2d")),),
    "deposition.stage": (
        ("pushers", ("deposit_charge", "deposit_density_2d", "deposit_phase_space")),
    ),
    "deposition.remap": (("solver", ("deposit_phase_space",)),),
    "deposition.diag": (("solver", ("deposit_charge", "deposit_density_2d")),),
    "deposition.seed": (("solver", ("seed_particles",)),),
    "field1d.solve": (("pushers", ("solve_poisson_1d",)),),
    "field2d.solve": (("pushers", ("solve_fields",)),),
    "field2d.potential": (("field2d", ("solve_potential",)),),
    "field2d.ex": (("field2d", ("compute_Ex",)),),
    "field2d.ey": (("field2d", ("compute_Ey",)),),
    "splines.fit_field": (("field1d", ("fit_1d",)), ("field2d", ("fit_2d",))),
    "splines.fit_remap": (("solver", ("fit_2d",)),),
    "solver.diag_solve": (("solver", ("solve_poisson_1d", "solve_fields")),),
    "solver.diag": (("solver", ("diag_row",)),),
}

#: spans of ``solver.init`` reported per set-up rather than per step
SETUP_SPANS = {
    "cases.initial_f": (("cases", ("initial_f",)),),
    "hill.matched_omega0": (("hill", ("matched_omega0",)),),
}

#: spans that also report particles per second; the value is the index of
#: the argument holding the particles (a ParticleSet or a position array)
PARTICLE_ARG = {
    "splines.gather": 1,
    "deposition.stage": 0,
    "deposition.remap": 0,
    "deposition.diag": 0,
}


class TraceError(RuntimeError):
    """A span has none of its candidate functions at a call site."""


def _particles(arg) -> int:
    return int(getattr(arg, "pos1", arg).size)


class SpanStats:
    __slots__ = ("calls", "self_s", "incl_s", "particles")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.particles = 0


class Tracer:
    """In-memory span accumulator, keyed by (phase, span).

    ``self_nested`` collects the spans entered while the same span was the
    innermost open one.  No wrapped function calls itself through a module
    attribute, so that happens only when a call site is wrapped twice, which
    would count its calls twice.
    """

    def __init__(self):
        self.phase = None
        self.stats: dict[tuple[str, str], SpanStats] = {}
        self.self_nested: set[str] = set()
        self._open: list[str] = []
        self._children: list[float] = []

    def get(self, phase: str, span: str) -> SpanStats:
        return self.stats.get((phase, span)) or SpanStats()

    def wrap(self, span: str, fn):
        arg = PARTICLE_ARG.get(span)

        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            if self._open and self._open[-1] == span:
                self.self_nested.add(span)
            self._open.append(span)
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = perf_counter() - t0
                self._open.pop()
                child = self._children.pop()
                if self._children:
                    self._children[-1] += wall
                rec = self.stats.get((phase, span))
                if rec is None:
                    rec = self.stats[(phase, span)] = SpanStats()
                rec.calls += 1
                rec.self_s += wall - child
                rec.incl_s += wall
                if arg is not None:
                    rec.particles += _particles(args[arg])

        return traced


def resolve(spans: dict) -> list[tuple[object, str, str]]:
    """(module, attribute, span) for every candidate present at its call site.

    Raises TraceError when a call site has none of its candidates, so a
    renamed function shows up as an error, never as a span of zero calls.
    """
    found = []
    for span, sites in spans.items():
        for module_name, names in sites:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            present = [name for name in names if hasattr(module, name)]
            if not present:
                raise TraceError(
                    f"span {span}: none of {', '.join(names)} exists in "
                    f"{PACKAGE}.{module_name}"
                )
            found.extend((module, name, span) for name in present)
    return found


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = []
    try:
        for module, name, value in replacements:
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def span_replacements(tracer: Tracer, spans: dict):
    """Wrapped values for every resolved call site of ``spans``."""
    out = []
    for module, name, span in resolve(spans):
        value = getattr(module, name)
        if isinstance(value, dict):
            wrapped = {key: tracer.wrap(span, fn) for key, fn in value.items()}
        else:
            wrapped = tracer.wrap(span, value)
        out.append((module, name, wrapped))
    return out

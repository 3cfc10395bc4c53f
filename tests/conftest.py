import numpy as np
import pytest

from fslvlasov import solver
from fslvlasov.cli import main


class NaNField:
    """Wraps a Vlasov-Poisson field provider; from its ``start``-th call on
    its field E is NaN (``once``: only at that call, then it delegates again)."""

    def __init__(self, inner, start, once=False):
        self.inner = inner
        self.start = start
        self.once = once
        self.calls = 0
        self.solves = 0
        self.stage = inner.stage  # the rows between remaps deposit through it

    def rhs(self, p, t):
        self.calls += 1
        if self.calls == self.start or (self.calls > self.start and not self.once):
            return p.pos2, np.full(p.pos1.shape, np.nan)
        return self.inner.rhs(p, t)

    def reseed(self, p, f):
        pass  # the inner provider keeps the set it was handed at init

    def node_field(self, p):
        return None  # diagnostics rows solve the field of the particles


@pytest.fixture
def nan_field(monkeypatch):
    """Install a NaNField(start, once) on every state solver.init builds."""

    def install(start, once=False):
        real_init = solver.init

        def init(config):
            state = real_init(config)
            state.provider = NaNField(state.provider, start, once)
            return state

        monkeypatch.setattr(solver, "init", init)

    return install


@pytest.fixture
def cli_abort(capsys):
    """Run the CLI on ``args`` and an 8x8 grid, which must exit 3 (numeric
    abort); returns its one stderr line."""

    def run(*args):
        assert main([*args, "--set", "nx=8", "--set", "nv=8"]) == 3
        return capsys.readouterr().err

    return run


@pytest.fixture
def taint(monkeypatch):
    """Patch ``module.name`` so that from its call ``start`` on its argument
    ``arg`` reaches it with one entry, the middle one, set to ``bad``."""

    def install(module, name, bad, start=1, arg=0):
        real, calls = getattr(module, name), []

        def tainted(*args):
            calls.append(1)
            args = list(args)
            if len(calls) >= start:
                a = args[arg] = np.array(args[arg])
                a.flat[a.size // 2] = bad
            return real(*args)

        monkeypatch.setattr(module, name, tainted)

    return install

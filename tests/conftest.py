import numpy as np
import pytest

from fslvlasov import solver


class NaNField:
    """Wraps a Vlasov-Poisson field provider; from its ``start``-th call on
    its field E is NaN (``once``: only at that call, then it delegates again)."""

    def __init__(self, inner, start, once=False):
        self.inner = inner
        self.start = start
        self.once = once
        self.calls = 0
        self.solves = 0

    def rhs(self, p, t):
        self.calls += 1
        if self.calls == self.start or (self.calls > self.start and not self.once):
            return p.pos2, np.full(p.pos1.shape, np.nan)
        return self.inner.rhs(p, t)

    def reseed(self, p):
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

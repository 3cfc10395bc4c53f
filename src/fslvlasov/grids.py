"""Uniform 1D grids with periodic or natural (clamped-derivative) closure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERIODIC = "periodic"
NATURAL = "natural"

#: fewest cells a grid may have (the cubic stencil spans four)
MIN_CELLS = 4


@dataclass(frozen=True)
class UniformGrid1D:
    """Uniform grid on [xmin, xmax] with n_cells cells.

    Periodic grids own n_cells distinct nodes (the right endpoint is
    identified with the left one); natural grids own n_cells + 1 nodes.
    ``deriv_lo``/``deriv_hi`` are the prescribed end derivatives used by
    the natural spline closure (ignored for periodic grids).
    """

    xmin: float
    xmax: float
    n_cells: int
    bc: str = PERIODIC
    deriv_lo: float = 0.0
    deriv_hi: float = 0.0

    def __post_init__(self):
        if not self.xmax > self.xmin:
            raise ValueError(f"xmax must exceed xmin, got [{self.xmin}, {self.xmax}]")
        if self.n_cells < MIN_CELLS:
            raise ValueError(f"need at least {MIN_CELLS} cells, got {self.n_cells}")
        if self.bc not in (PERIODIC, NATURAL):
            raise ValueError(f"unknown boundary kind {self.bc!r}")

    @property
    def periodic(self) -> bool:
        return self.bc == PERIODIC

    @property
    def length(self) -> float:
        return self.xmax - self.xmin

    @property
    def delta(self) -> float:
        return (self.xmax - self.xmin) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells if self.periodic else self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return self.xmin + self.delta * np.arange(self.n_nodes)

    def to_units(self, x):
        """Map physical coordinates to grid units (node i sits at u = i).

        Periodic coordinates are wrapped into [0, n_cells): this is the
        package's one periodic wrap, so positions from the pushers and
        BSL's feet may lie any number of periods away.  Natural ones are
        returned as-is (callers decide how to treat out-of-range points).
        The result is a fresh array, never ``x``: callers may write over it.
        """
        u = np.subtract(x, self.xmin, out=np.empty(np.shape(x)))
        u /= self.delta
        if self.periodic:
            n = self.n_cells
            u -= n * np.floor(u / n)
            # guard the half-open interval against round-off at the seam
            np.subtract(u, n, out=u, where=u >= n)
        return u

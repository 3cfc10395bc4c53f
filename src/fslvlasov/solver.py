"""Time marching over the Vlasov-Poisson, guiding-center and external-force
models: the forward remap scheme, its hybrid remap-every-T variant, the
diagnostics rows, and the run loop with its file outputs.

One forward step pushes the node-seeded particles with the configured
pusher (``pushers.VP_PUSHERS`` or ``GC_PUSHERS``, looked up every step),
scatters their frozen weights back onto the phase-space grid, refits the
spline coefficients, and reseeds the particles at the nodes.  Each seeded
set goes to the field provider, which solves its field once, on the grid
and on first use; the diagnostics row and the first stage of the next
step share that field (see ``pushers``).  The hybrid scheme remaps only
every T steps; in between, the pushed particles keep their frozen weights
and every stage solves its own field.  ``scheme = bsl`` steps with the
backward comparator of ``bsl``.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cases, diagnostics
from .bsl import bsl_step
from .cases import GC, HILL, VP, CaseConfig
from .deposition import (
    ParticleSet,
    deposit_charge,
    deposit_phase_space,
    seed_particles,
)
from .field1d import solve_poisson_1d
from .field2d import FieldState2D, solve_fields
from .grids import UniformGrid1D
from .pushers import (
    GC_PUSHERS,
    VP_PUSHERS,
    ExternalLinearForce,
    SelfConsistentField1D,
    SelfConsistentField2D,
)
from .splines import SplineCoeffs, fit_2d

#: electric-energy ceiling treated as numerical divergence
ENERGY_ABORT = 1e12

CHANNELS = {
    VP: ["mass", "l1", "l2", "momentum", "kinetic_energy", "electric_energy",
         "total_energy", "E1", "E2", "E3", "mass_lost"],
    GC: ["mass", "l2", "energy", "enstrophy", "e_l2", "pert1", "mass_lost"],
    HILL: ["mass", "l2", "xrms", "mass_lost"],
}


class NumericsAbort(RuntimeError):
    """Non-finite or runaway values were detected mid-run."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class SimState:
    config: CaseConfig
    model: str
    g1: UniformGrid1D
    g2: UniformGrid1D
    f_coeffs: SplineCoeffs
    particles: ParticleSet
    f_nodes: Optional[np.ndarray]
    provider: object
    t: float = 0.0
    step_index: int = 0
    mass_lost: float = 0.0
    # previous-step fields kept by the backward guiding-center comparator
    bsl_field: Optional[FieldState2D] = None
    bsl_field_prev: Optional[FieldState2D] = None

    @property
    def cell(self) -> float:
        return self.g1.delta * self.g2.delta


def init(config: CaseConfig) -> SimState:
    """Sample f0 at the nodes, fit the spline, seed particles, build fields."""
    g1, g2 = cases.build_grids(config)
    f0 = cases.initial_f(config, g1, g2)
    coeffs = fit_2d(f0, g1, g2)
    particles = seed_particles(coeffs)
    if config.model == VP:
        provider = SelfConsistentField1D(g1, g2.delta)
    elif config.model == GC:
        provider = SelfConsistentField2D(g1, g2)
    else:
        provider = ExternalLinearForce(cases.hill_coefficient(config))
    state = SimState(config, config.model, g1, g2, coeffs, particles, f0, provider)
    if config.scheme != "bsl":
        _hand_over(state)
    elif config.model == GC:
        state.bsl_field = solve_fields(f0, g1, g2)
        state.bsl_field_prev = state.bsl_field
    return state


def _hand_over(state: SimState):
    """Give the provider the freshly seeded set (providers without a node
    field, such as the external force, skip it)."""
    reseed = getattr(state.provider, "reseed", None)
    if reseed is not None:
        reseed(state.particles)


def _node_field(state: SimState):
    """The provider's field of the current particles if they are the set
    it was handed, else None (mid-cycle hybrid steps, the BSL comparator)."""
    node_field = getattr(state.provider, "node_field", None)
    return node_field(state.particles) if node_field is not None else None


# ---------------------------------------------------------------------------
# forward steps


def _remap(state: SimState, pushed: ParticleSet):
    f_new = deposit_phase_space(pushed, state.g1, state.g2)
    if not np.all(np.isfinite(f_new)):
        raise NumericsAbort(f"non-finite f at step {state.step_index + 1}")
    state.mass_lost += state.cell * (float(np.sum(pushed.weights)) - float(np.sum(f_new)))
    state.f_coeffs = fit_2d(f_new, state.g1, state.g2)
    state.particles = seed_particles(state.f_coeffs)
    state.f_nodes = f_new
    _hand_over(state)


def _forward_step(state: SimState, remap_now: bool) -> SimState:
    cfg = state.config
    pushers = GC_PUSHERS if state.model == GC else VP_PUSHERS
    pushed = pushers[cfg.pusher](state.particles, state.provider, cfg.dt, state.t)
    if remap_now:
        _remap(state, pushed)
    else:
        state.particles = pushed
        state.f_nodes = None
    state.step_index += 1
    state.t = state.step_index * cfg.dt
    return state


def fsl_step(state: SimState) -> SimState:
    """Push, deposit onto the grid, refit, reseed: one forward step."""
    return _forward_step(state, remap_now=True)


def hybrid_step(state: SimState) -> SimState:
    """Forward step that remaps only when (step_index + 1) % T == 0."""
    return _forward_step(state, remap_now=(state.step_index + 1) % state.config.T == 0)


def step(state: SimState) -> SimState:
    scheme = state.config.scheme
    if scheme == "fsl":
        return fsl_step(state)
    if scheme == "hybrid":
        return hybrid_step(state)
    return bsl_step(state)


# ---------------------------------------------------------------------------
# diagnostics rows


def _diag_vp(state: SimState) -> dict:
    cfg = state.config
    gx, gv = state.g1, state.g2
    fs = _node_field(state)
    if fs is None:
        fs = solve_poisson_1d(deposit_charge(state.particles, gx, gv.delta), gx)
    ee = diagnostics.electric_energy_1d(fs.E, gx)
    if not np.isfinite(ee) or ee > ENERGY_ABORT:
        raise NumericsAbort(f"field energy diverged at t={state.t:g}")
    a1, a2, a3 = diagnostics.fourier_mode_amps(fs.E, gx)
    row = {
        "electric_energy": ee, "E1": a1, "E2": a2, "E3": a3,
        "mass_lost": state.mass_lost,
    }
    f = state.f_nodes
    if f is None:
        row.update(
            mass=state.cell * float(np.sum(state.particles.weights)),
            l1=np.nan, l2=np.nan, momentum=np.nan,
            kinetic_energy=np.nan, total_energy=np.nan,
        )
    else:
        gpair = (gx, gv)
        row.update(
            mass=diagnostics.mass(f, gpair),
            l1=diagnostics.lp_norm(f, gpair, 1),
            l2=diagnostics.lp_norm(f, gpair, 2),
            momentum=diagnostics.momentum(f, gpair),
            kinetic_energy=diagnostics.kinetic_energy_vp(f, gpair),
            total_energy=diagnostics.total_energy_vp(f, fs.E, gpair),
        )
    return row


def _diag_gc(state: SimState) -> dict:
    gx, gy = state.g1, state.g2
    rho = state.f_nodes
    if rho is None:
        rho = deposit_phase_space(state.particles, gx, gy)
    if state.config.scheme == "bsl" and state.bsl_field is not None:
        flds = state.bsl_field
    else:
        flds = _node_field(state)
        if flds is None:
            flds = solve_fields(rho, gx, gy)
    gpair = (gx, gy)
    energy = diagnostics.energy_2d(flds.Ex, flds.Ey, gpair)
    if not np.isfinite(energy) or energy > ENERGY_ABORT:
        raise NumericsAbort(f"field energy diverged at t={state.t:g}")
    spec = np.fft.rfft(rho, axis=0)[1] / gx.n_nodes
    pert1 = float(np.sqrt(gy.delta * np.sum(np.abs(spec) ** 2)))
    return {
        "mass": diagnostics.mass(rho, gpair),
        "l2": diagnostics.lp_norm(rho, gpair, 2),
        "energy": energy,
        "enstrophy": diagnostics.enstrophy(rho, gpair),
        "e_l2": float(np.sqrt(energy)),
        "pert1": pert1,
        "mass_lost": state.mass_lost,
    }


def _diag_hill(state: SimState) -> dict:
    f = state.f_nodes
    gpair = (state.g1, state.g2)
    if f is None:
        return {
            "mass": state.cell * float(np.sum(state.particles.weights)),
            "l2": np.nan, "xrms": np.nan, "mass_lost": state.mass_lost,
        }
    if not np.all(np.isfinite(f)):
        raise NumericsAbort(f"non-finite f at t={state.t:g}")
    return {
        "mass": diagnostics.mass(f, gpair),
        "l2": diagnostics.lp_norm(f, gpair, 2),
        "xrms": diagnostics.xrms(f, gpair),
        "mass_lost": state.mass_lost,
    }


def diag_row(state: SimState) -> dict:
    if state.model == VP:
        return _diag_vp(state)
    if state.model == GC:
        return _diag_gc(state)
    return _diag_hill(state)


# ---------------------------------------------------------------------------
# run orchestration and file outputs


@dataclass
class RunResult:
    config: CaseConfig
    times: np.ndarray
    channels: dict
    snapshots: list
    state: Optional[SimState] = None

    def channel(self, name: str) -> np.ndarray:
        return self.channels[name]


def write_snapshot(path_base: str, arr: np.ndarray, t: float, fmt: str = "bin"):
    """Snapshot layout: two little-endian int64 dims, then row-major
    float64 values; a text sidecar records shape and time."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if fmt == "csv":
        np.savetxt(path_base + ".csv", arr, fmt="%.17g", delimiter=",")
    else:
        with open(path_base + ".bin", "wb") as fh:
            np.array(arr.shape, dtype="<i8").tofile(fh)
            arr.tofile(fh)
    with open(path_base + ".txt", "w") as fh:
        fh.write(f"shape={arr.shape[0]}x{arr.shape[1]}\n")
        fh.write(f"t={t!r}\n")
        fh.write(f"format={fmt}\n")
        fh.write("layout=dims:2xint64-le,data:row-major-float64\n")


def read_snapshot(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        shape = np.fromfile(fh, dtype="<i8", count=2)
        return np.fromfile(fh, dtype="<f8").reshape(int(shape[0]), int(shape[1]))


class _Writer:
    def __init__(self, outdir: str, cfg: CaseConfig, channel_names):
        self.outdir = outdir
        self.cfg = cfg
        os.makedirs(outdir, exist_ok=True)
        os.makedirs(os.path.join(outdir, "snapshots"), exist_ok=True)
        with open(os.path.join(outdir, "config.echo"), "w") as fh:
            fh.write(cases.format_config(cfg))
        self.names = ["t"] + list(channel_names)
        self.fh = open(os.path.join(outdir, "series.csv"), "w", newline="")
        self.csv = csv.writer(self.fh)
        self.csv.writerow(self.names)

    def row(self, t: float, row: dict):
        self.csv.writerow(
            [f"{t:.17g}"] + [f"{row[name]:.17g}" for name in self.names[1:]]
        )

    def snapshot(self, state: SimState):
        base = os.path.join(self.outdir, "snapshots", f"snap_{state.step_index:06d}")
        write_snapshot(base, state.f_nodes, state.t, self.cfg.snapshot_format)

    def close(self):
        self.fh.flush()
        self.fh.close()


def run(config: CaseConfig, outdir: Optional[str] = None) -> RunResult:
    """March the configured scheme to t_end, collecting diagnostics.

    Returns the in-memory series and snapshots; when ``outdir`` is given,
    also writes config.echo, series.csv and snapshots/ (flushed even if
    the run aborts on non-finite values).  A non-finite check that fires
    inside a step (FloatingPointError from the pushers, ValueError from
    deposition, fitting or the field solves) ends the run as a
    NumericsAbort carrying the rows recorded so far.
    """
    state = init(config)
    names = CHANNELS[state.model]
    writer = _Writer(outdir, config, names) if outdir else None
    times, rows, snaps = [], [], []

    def record():
        row = diag_row(state)
        times.append(state.t)
        rows.append(row)
        if writer:
            writer.row(state.t, row)

    def partial():
        channels = {n: np.array([r[n] for r in rows]) for n in names}
        return RunResult(config, np.array(times), channels, snaps, state)

    try:
        record()
        if state.f_nodes is not None:
            snaps.append((state.t, state.f_nodes.copy()))
            if writer:
                writer.snapshot(state)
        for n in range(1, config.n_steps() + 1):
            step(state)
            if n % config.diag_every == 0 or n == config.n_steps():
                record()
            if n % config.snapshot_every == 0 and state.f_nodes is not None:
                snaps.append((state.t, state.f_nodes.copy()))
                if writer:
                    writer.snapshot(state)
    except NumericsAbort as abort:
        abort.partial = partial()
        raise
    except (FloatingPointError, ValueError) as err:
        raise NumericsAbort(
            f"{err} at step {state.step_index + 1}", partial()
        ) from err
    finally:
        if writer:
            writer.close()
    return partial()

"""Time marching over the Vlasov-Poisson, guiding-center and external-force
models: the forward step, the diagnostics rows, and the run loop with its
file outputs.

``step`` pushes the node-seeded particles with the configured pusher
(``pushers.VP_PUSHERS`` or ``GC_PUSHERS``, looked up every step) and
scatters their frozen weights back onto the phase-space grid every step
(fsl) or every T steps (hybrid; in between the pushed particles keep their
frozen weights and every stage solves its own field).  ``scheme = bsl``
takes the new node values from the backward comparator of ``bsl``, whose
provider keeps its field history.  Every scheme then has one remap: it
books the mass lost, refits the spline coefficients, reseeds the particles
at the nodes and hands the new set to the provider (``reseed``), which
solves its field once, on the grid and on first use; the diagnostics row
and the first stage of the next step share that field (``node_field``,
see ``pushers``).

A diagnostics row and a snapshot read f at the nodes from one source: the
last remap's f, or between hybrid remaps the pushed set's deposit, made
once a step.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import cases, diagnostics
from .bsl import BackwardFields, bsl_step
from .cases import GC, HILL, VP, CaseConfig
from .deposition import (
    ParticleSet,
    deposit_charge,
    deposit_phase_space,
    seed_particles,
)
from .field1d import solve_poisson_1d
from .field2d import solve_fields
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


class OutputError(RuntimeError):
    """The output directory or a file in it cannot be written."""


@dataclass
class SimState:
    config: CaseConfig
    g1: UniformGrid1D
    g2: UniformGrid1D
    f_coeffs: SplineCoeffs
    particles: ParticleSet
    f_nodes: Optional[np.ndarray]   # None between hybrid remaps until read
    provider: object
    t: float = 0.0
    step_index: int = 0
    mass_lost: float = 0.0

    @property
    def cell(self) -> float:
        return self.g1.delta * self.g2.delta


def init(config: CaseConfig) -> SimState:
    """Sample f0 at the nodes, fit the spline, seed particles, build fields."""
    g1, g2 = cases.build_grids(config)
    f0 = cases.initial_f(config, g1, g2)
    if not np.all(np.isfinite(f0)):  # name the keys that shape f0, beside the grid's
        keys = {VP: "alpha, k, Lx, v_max", GC: "eps, Lx", HILL: "omega0, a_mean, a_eps"}
        raise cases.ConfigError(f"non-finite initial f: check {keys[config.model]}")
    coeffs = fit_2d(f0, g1, g2)
    particles = seed_particles(coeffs)
    if config.scheme == "bsl":
        provider = BackwardFields(config.model, f0, g1, g2)
    elif config.model == VP:
        provider = SelfConsistentField1D(g1, g2.delta)
    elif config.model == GC:
        provider = SelfConsistentField2D(g1, g2)
    else:
        provider = ExternalLinearForce(cases.hill_coefficient(config))
    provider.reseed(particles)
    return SimState(config, g1, g2, coeffs, particles, f0, provider)


# ---------------------------------------------------------------------------
# the forward step


def _remap(state: SimState, f_new: np.ndarray, lost: float):
    """Take ``f_new`` as f at the nodes, ``lost`` (a node-value sum) as
    the mass that left: refit, reseed and hand the new set over."""
    if not np.all(np.isfinite(f_new)):
        raise FloatingPointError("non-finite f")
    state.mass_lost += state.cell * lost
    state.f_coeffs = fit_2d(f_new, state.g1, state.g2)
    state.particles = seed_particles(state.f_coeffs)
    state.f_nodes = f_new
    state.provider.reseed(state.particles)


def step(state: SimState) -> SimState:
    """Advance ``state`` by one step of its scheme: bsl steps backward;
    fsl and hybrid push, and remap every T-th step (T = 1 for fsl)."""
    cfg = state.config
    if cfg.scheme == "bsl":
        _remap(state, *bsl_step(state))
    else:
        pushers = GC_PUSHERS if cfg.model == GC else VP_PUSHERS
        pushed = pushers[cfg.pusher](state.particles, state.provider, cfg.dt, state.t)
        if (state.step_index + 1) % cfg.T == 0:
            f_new = deposit_phase_space(pushed, state.g1, state.g2)
            _remap(state, f_new, float(np.sum(pushed.weights)) - float(np.sum(f_new)))
        else:
            state.particles, state.f_nodes = pushed, None
    state.step_index += 1
    state.t = state.step_index * cfg.dt
    return state


# ---------------------------------------------------------------------------
# diagnostics rows


def _node_f(state: SimState) -> np.ndarray:
    """f at the nodes: the last remap's, or mid-cycle the deposit of the
    pushed set, kept in ``state.f_nodes`` for the rest of the step."""
    if state.f_nodes is None:
        state.f_nodes = deposit_phase_space(state.particles, state.g1, state.g2)
    return state.f_nodes


def _checked_energy(energy: float) -> float:
    if not np.isfinite(energy) or energy > ENERGY_ABORT:
        raise FloatingPointError("field energy diverged")
    return energy


def _diag_vp(state: SimState, f, gpair) -> dict:
    gx, gv = gpair
    fs = (state.provider.node_field(state.particles)
          or solve_poisson_1d(deposit_charge(state.particles, gx, gv.delta), gx))
    ee = _checked_energy(diagnostics.electric_energy_1d(fs.E, gx))
    a1, a2, a3 = diagnostics.fourier_mode_amps(fs.E, gx)
    return {
        "l1": diagnostics.lp_norm(f, gpair, 1),
        "momentum": diagnostics.momentum(f, gpair),
        "kinetic_energy": diagnostics.kinetic_energy_vp(f, gpair),
        "electric_energy": ee,
        "total_energy": diagnostics.total_energy_vp(f, fs.E, gpair),
        "E1": a1, "E2": a2, "E3": a3,
    }


def _diag_gc(state: SimState, rho, gpair) -> dict:
    gx, gy = gpair
    flds = state.provider.node_field(state.particles) or solve_fields(rho, gx, gy)
    energy = _checked_energy(diagnostics.energy_2d(flds.Ex, flds.Ey, gpair))
    spec = np.fft.rfft(rho, axis=0)[1] / gx.n_nodes
    return {
        "energy": energy,
        "enstrophy": diagnostics.enstrophy(rho, gpair),
        "e_l2": float(np.sqrt(energy)),
        "pert1": float(np.sqrt(gy.delta * np.sum(np.abs(spec) ** 2))),
    }


def _diag_hill(state: SimState, f, gpair) -> dict:
    if not np.all(np.isfinite(f)):
        raise FloatingPointError("non-finite f")
    return {"xrms": diagnostics.xrms(f, gpair)}


_MODEL_ROWS = {VP: _diag_vp, GC: _diag_gc, HILL: _diag_hill}


def diag_row(state: SimState) -> dict:
    """The model's diagnostics channels at the current step."""
    f, gpair = _node_f(state), (state.g1, state.g2)
    row = _MODEL_ROWS[state.config.model](state, f, gpair)
    row.update(
        mass=diagnostics.mass(f, gpair),
        l2=diagnostics.lp_norm(f, gpair, 2),
        mass_lost=state.mass_lost,
    )
    return row


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
        fh.write(f"shape={arr.shape[0]}x{arr.shape[1]}\nt={t!r}\nformat={fmt}\n"
                 "layout=dims:2xint64-le,data:row-major-float64\n")


def read_snapshot(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        shape = np.fromfile(fh, dtype="<i8", count=2)
        return np.fromfile(fh, dtype="<f8").reshape(int(shape[0]), int(shape[1]))


class _Writer:
    def __init__(self, outdir: str, cfg: CaseConfig, channel_names):
        self.outdir, self.cfg = outdir, cfg
        os.makedirs(os.path.join(outdir, "snapshots"), exist_ok=True)
        with open(os.path.join(outdir, "config.echo"), "w") as fh:
            fh.write(cases.format_config(cfg))
        self.names = ["t"] + list(channel_names)
        self.fh = open(os.path.join(outdir, "series.csv"), "w", newline="")
        self.csv = csv.writer(self.fh)
        self.csv.writerow(self.names)

    def row(self, t: float, row: dict):
        self.csv.writerow([f"{t:.17g}"] + [f"{row[name]:.17g}" for name in self.names[1:]])

    def snapshot(self, state: SimState, f: np.ndarray):
        base = os.path.join(self.outdir, "snapshots", f"snap_{state.step_index:06d}")
        write_snapshot(base, f, state.t, self.cfg.snapshot_format)

    def close(self):
        self.fh.flush()
        self.fh.close()


def run(config: CaseConfig, outdir: Optional[str] = None) -> RunResult:
    """March the configured scheme to t_end, collecting diagnostics.

    Returns the in-memory series and snapshots; when ``outdir`` is given,
    also writes config.echo, series.csv and snapshots/ (flushed even if
    the run aborts on non-finite values), and any OSError there is an
    OutputError.  The setup raises ConfigError (non-finite f0, Hill outside
    a stable zone).  Every numeric check raises (FloatingPointError from
    the pushers, the remap and the rows, ValueError from deposition,
    fitting or the field solves), so numpy's float warnings are off; this
    is the one place that ends the run as a NumericsAbort, naming the
    setup, the t = 0 row or step n (with its row and snapshot) and
    carrying the rows recorded so far.
    """
    names = CHANNELS[config.model]
    writer, times, rows, snaps, state = None, [], [], [], None

    def record():
        row = diag_row(state)
        times.append(state.t)
        rows.append(row)
        if writer:
            writer.row(state.t, row)

    def snapshot():
        f = _node_f(state)
        snaps.append((state.t, f.copy()))
        if writer:
            writer.snapshot(state, f)

    def partial():
        channels = {n: np.array([r[n] for r in rows]) for n in names}
        return RunResult(config, np.array(times), channels, snaps, state)

    where = "setup"
    with np.errstate(all="ignore"):  # every numeric check raises, none warns
        try:
            try:
                writer = _Writer(outdir, config, names) if outdir else None
                state = init(config)
                where = "t = 0"
                record()
                snapshot()
                for n in range(1, config.n_steps() + 1):
                    where = f"step {n}"
                    step(state)
                    if n % config.diag_every == 0 or n == config.n_steps():
                        record()
                    if n % config.snapshot_every == 0:
                        snapshot()
            finally:
                if writer:
                    writer.close()
        except (FloatingPointError, ValueError) as err:
            raise NumericsAbort(f"{err} at {where}", partial()) from err
        except OSError as err:
            raise OutputError(f"cannot write to {outdir}: {err}") from err
    return partial()

"""Time marching over the Vlasov-Poisson, guiding-center and external-force
models: the forward step, the diagnostics rows, and the run loop with its
file outputs.

``step`` pushes the node-seeded particles with the configured pusher
(``pushers.VP_PUSHERS`` or ``GC_PUSHERS``, looked up every step) and
scatters their frozen weights back onto the phase-space grid every step
(fsl) or every T steps (hybrid; in between the pushed particles keep their
frozen weights and every stage solves its own field).  ``scheme = bsl``
takes the new node values from the backward comparator of ``bsl``.  The
provider depends on the model alone, and every scheme has one remap, t = 0
included (``init`` ends in it): it books the mass lost, refits f, reseeds
the particles at the nodes and hands the set and f to the provider
(``reseed``), which solves the remap's field once, on the grid and on first
use; the diagnostics row and the first stage of the next step (bsl: the
backward step) share that field (``node_field``, see ``pushers``).

A diagnostics row and a snapshot read f at the nodes from one source: the
last remap's f, or between hybrid remaps the pushed set's deposit, made
once a step (``deposit_phase_space``, the remap's scatter).  A
Vlasov-Poisson row there takes its charge as dv M^T w of the provider's
``stage`` operator M (``deposit_charge``), which the next stage refills.
"""

from __future__ import annotations

import csv
import os
from contextlib import ExitStack
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


class OutputError(RuntimeError):
    """The output directory or a file in it cannot be written."""


@dataclass
class SimState:
    config: CaseConfig
    g1: UniformGrid1D
    g2: UniformGrid1D
    provider: object
    f_coeffs: Optional[SplineCoeffs] = None  # these three: set by each remap, t = 0's too
    particles: Optional[ParticleSet] = None
    f_nodes: Optional[np.ndarray] = None     # None between hybrid remaps until read
    t: float = 0.0
    step_index: int = 0
    mass_lost: float = 0.0
    e_prev: object = None           # bsl, guiding center: the last step's E^n

    @property
    def cell(self) -> float:
        return self.g1.delta * self.g2.delta


def init(config: CaseConfig) -> SimState:
    """Sample f0 at the nodes, build the provider and remap to f0, losing nothing."""
    g1, g2 = cases.build_grids(config)
    f0 = cases.initial_f(config, g1, g2)
    if not np.all(np.isfinite(f0)):  # name the keys that shape f0, beside the grid's
        keys = {VP: "alpha, k, Lx, v_max", GC: "eps, Lx", HILL: "omega0, a_mean, a_eps"}
        raise cases.ConfigError(f"non-finite initial f: check {keys[config.model]}")
    if config.model == VP:
        provider = SelfConsistentField1D(g1, g2)
    elif config.model == GC:
        provider = SelfConsistentField2D(g1, g2)
    else:
        provider = ExternalLinearForce(cases.hill_coefficient(config))
    state = SimState(config, g1, g2, provider)
    _remap(state, f0, 0.0)
    return state


# ---------------------------------------------------------------------------
# the forward step


def _remap(state: SimState, f_new: np.ndarray, lost: float):
    """Take ``f_new`` as f at the nodes, ``lost`` (a node-value sum) as
    the mass that left: refit, reseed and hand the new set over."""
    state.mass_lost += state.cell * lost
    state.f_coeffs = fit_2d(f_new, state.g1, state.g2)
    state.particles = seed_particles(state.f_coeffs)
    state.f_nodes = f_new
    state.provider.reseed(state.particles, f_new)


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
    fs = state.provider.node_field(state.particles) or solve_poisson_1d(
        gv.delta * deposit_charge(state.particles, (gx,), state.provider.stage), gx)
    ee = _checked_energy(diagnostics.electric_energy_1d(fs.E, gx))
    ke = diagnostics.kinetic_energy_vp(f, gpair)
    a1, a2, a3 = diagnostics.fourier_mode_amps(fs.E, gx)
    return {
        "l1": diagnostics.lp_norm(f, gpair, 1),
        "momentum": diagnostics.momentum(f, gpair),
        "kinetic_energy": ke,
        "electric_energy": ee,
        "total_energy": ke + 2.0 * ee,  # the conserved int v^2 f + int E^2
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


def run(config: CaseConfig, outdir: Optional[str] = None) -> RunResult:
    """March the configured scheme to t_end, collecting diagnostics.

    Returns the in-memory series and snapshots; when ``outdir`` is given,
    also writes config.echo, series.csv and snapshots/, and any OSError
    there is an OutputError.  The setup raises ConfigError (non-finite f0,
    Hill outside a stable zone).  A numeric check raises FloatingPointError
    (a position as ``splines._locate`` reads it, the seed's coefficients,
    the rows' energy ceiling), so numpy's float warnings are off; this is
    the one place that ends the run as a NumericsAbort, naming the setup,
    the t = 0 row or step n (with its row and snapshot).  A ValueError is
    a caller's or the program's mistake and propagates as itself.  The
    rows and snapshots written before an abort stay under ``outdir``:
    series.csv is closed, and so flushed, either way.
    """
    names = CHANNELS[config.model]
    rows_out, times, rows, snaps, state = None, [], [], [], None

    def record():
        row = diag_row(state)
        times.append(state.t)
        rows.append(row)
        if rows_out:
            rows_out.writerow([f"{state.t:.17g}"] + [f"{row[n]:.17g}" for n in names])

    def snapshot():
        f = _node_f(state)
        snaps.append((state.t, f.copy()))
        if outdir:
            base = os.path.join(outdir, "snapshots", f"snap_{state.step_index:06d}")
            write_snapshot(base, f, state.t, config.snapshot_format)

    where = "setup"
    with np.errstate(all="ignore"):  # every numeric check raises, none warns
        try:
            with ExitStack() as files:  # inside the try: a failed close is an OutputError
                if outdir:
                    os.makedirs(os.path.join(outdir, "snapshots"), exist_ok=True)
                    with open(os.path.join(outdir, "config.echo"), "w") as fh:
                        fh.write(cases.format_config(config))
                    rows_out = csv.writer(files.enter_context(
                        open(os.path.join(outdir, "series.csv"), "w", newline="")))
                    rows_out.writerow(["t"] + names)
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
        except FloatingPointError as err:
            raise NumericsAbort(f"{err} at {where}") from err
        except OSError as err:
            raise OutputError(f"cannot write to {outdir}: {err}") from err
    channels = {n: np.array([r[n] for r in rows]) for n in names}
    return RunResult(np.array(times), channels, snaps, state)

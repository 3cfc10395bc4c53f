"""Benchmark case library and the flat key=value run configuration.

The keys are the ``CaseConfig`` fields: one pair a line in a config file
(which must set ``case``) or a ``--set``, ``#`` comments, no repeated key,
every float finite.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import grids, pushers

VP = "vp"
GC = "gc"
HILL = "hill"

SCHEMES = ("fsl", "bsl", "hybrid")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class CaseConfig:
    """Complete, deterministic description of one run."""

    case: str
    scheme: str = "fsl"
    T: int = 1                      # remap period for the hybrid scheme
    pusher: str = "verlet"
    nx: int = 64
    nv: int = 64                    # velocity cells (VP) / y cells (GC, Hill)
    dt: float = 0.1
    t_end: float = 60.0
    v_max: float = 6.0
    k: float = 0.5
    alpha: float = 0.001
    Lx: Optional[float] = None      # None: 2*pi/k (VP); required for GC
    eps: float = 0.015              # Kelvin-Helmholtz perturbation amplitude
    a_mean: float = 0.81            # Hill coefficient a(t) = a_mean + a_eps cos t
    a_eps: float = 0.15             # (the default sits in a stable zone)
    omega0: Optional[float] = None  # Hill envelope amplitude; None = matched
    deriv_v: float = 0.0            # natural-closure end derivative
    diag_every: int = 1
    snapshot_every: int = 50
    snapshot_format: str = "bin"    # "bin" | "csv"

    @property
    def model(self) -> str:
        if self.case == "kelvin_helmholtz":
            return GC
        if self.case == "hill":
            return HILL
        return VP

    def domain_length(self) -> float:
        if self.Lx is not None:
            return self.Lx
        return 2.0 * np.pi / self.k

    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


_DEFAULTS = {
    "landau": CaseConfig(
        case="landau", nx=64, nv=64, dt=0.1, t_end=60.0, v_max=6.0,
        k=0.5, alpha=0.001, pusher="verlet",
    ),
    "two_stream": CaseConfig(
        case="two_stream", nx=128, nv=128, dt=0.5, t_end=100.0, v_max=9.0,
        k=0.5, alpha=0.05, pusher="verlet",
    ),
    "bump_on_tail": CaseConfig(
        case="bump_on_tail", nx=128, nv=128, dt=0.5, t_end=200.0, v_max=9.0,
        k=0.3, alpha=0.04, Lx=20.0 * np.pi, pusher="rk4", snapshot_every=80,
    ),
    "kelvin_helmholtz": CaseConfig(
        case="kelvin_helmholtz", nx=128, nv=128, dt=0.5, t_end=100.0,
        Lx=7.0, eps=0.015, pusher="rk4", k=0.5, alpha=0.0,
    ),
    "hill": CaseConfig(
        case="hill", nx=256, nv=256, dt=2.0 * np.pi / 25.0,
        t_end=20.0 * np.pi, pusher="rk2", k=0.5, alpha=0.0,
    ),
}

CASES = tuple(_DEFAULTS)

#: the type of each key; an annotation not listed here fails at import
_TYPES = {f.name: {"str": str, "int": int, "float": float, "Optional[float]": float}[f.type]
          for f in fields(CaseConfig)}

_POSITIVE = {"T", "nx", "nv", "diag_every", "snapshot_every",
             "dt", "t_end", "v_max", "k", "Lx", "omega0"}

#: bytes of physical memory, past which a grid cannot run; inf where unknown
MEMORY = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
          if hasattr(os, "sysconf") else float("inf"))


def case_defaults(case: str) -> CaseConfig:
    if case not in _DEFAULTS:
        raise ConfigError(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    return _DEFAULTS[case]


def _convert(key: str, raw: str):
    if key not in _TYPES:
        raise ConfigError(f"unknown key {key!r}")
    typ = _TYPES[key]
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {typ.__name__}") from None


def _validate(cfg: CaseConfig) -> CaseConfig:
    for key, typ in _TYPES.items():
        val = getattr(cfg, key)
        if typ is float and val is not None and not np.isfinite(val):
            raise ConfigError(f"key {key!r} must be finite, got {val}")
        if key in _POSITIVE and val is not None and not val > 0:
            raise ConfigError(f"key {key!r} must be positive, got {val}")
    for key in ("nx", "nv"):
        if getattr(cfg, key) < grids.MIN_CELLS:
            raise ConfigError(
                f"key {key!r} must be at least {grids.MIN_CELLS}, got {getattr(cfg, key)}"
            )
    need = 64 * (cfg.nx + 1) * (cfg.nv + 3)  # f, its coefficients, the particles: 8 doubles
    if need > MEMORY:  # estimated before anything of the grid is allocated
        raise ConfigError(f"a {cfg.nx}x{cfg.nv} grid needs over {need / 2**30:.3g} GiB, "
                          f"more than the {MEMORY / 2**30:.3g} GiB of memory here")
    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    if cfg.T != 1 and cfg.scheme != "hybrid":
        raise ConfigError(f"key 'T' (remap period) needs scheme=hybrid, got scheme={cfg.scheme}")
    if cfg.pusher not in (pushers.GC_PUSHERS if cfg.model == GC else pushers.VP_PUSHERS):
        kind = "guiding-center pusher" if cfg.model == GC else "pusher"
        raise ConfigError(f"unknown {kind} {cfg.pusher!r}")
    if cfg.model == GC and cfg.Lx is None:
        raise ConfigError("kelvin_helmholtz requires Lx")
    steps = cfg.t_end / cfg.dt
    if not np.isfinite(steps):
        raise ConfigError(f"t_end={cfg.t_end!r} over dt={cfg.dt!r} overflows the step count")
    lo = max(int(steps), 1)
    if round(steps) < 1 or abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"t_end={cfg.t_end!r} is {steps:.6g} steps of dt={cfg.dt!r}; nearest "
                          f"valid: t_end={lo * cfg.dt:.12g} or {(lo + 1) * cfg.dt:.12g}")
    if cfg.snapshot_format not in ("bin", "csv"):
        raise ConfigError(f"unknown snapshot_format {cfg.snapshot_format!r}")
    if cfg.scheme == "bsl" and cfg.model == HILL:
        raise ConfigError("the backward comparator is not wired for the hill case")
    return cfg


def apply_overrides(cfg: CaseConfig, overrides: dict) -> CaseConfig:
    parsed = {}
    for key, raw in overrides.items():
        parsed[key] = _convert(key, raw) if isinstance(raw, str) else raw
    if parsed.pop("case", cfg.case) != cfg.case:
        raise ConfigError(f"case cannot be overridden: the run is case={cfg.case}")
    return _validate(replace(cfg, **parsed))


def read_pairs(items, what: str = "line") -> dict:
    """Typed values of ``key=value`` items; errors name ``{what} {i}``."""
    pairs = {}
    for i, item in enumerate(items, start=1):
        body = item.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            if "=" not in body:
                raise ConfigError(f"expected key=value, got {body!r}")
            key, raw = (part.strip() for part in body.split("=", 1))
            if key in pairs:
                raise ConfigError(f"duplicate key {key!r}")
            pairs[key] = _convert(key, raw)
        except ConfigError as err:
            raise ConfigError(f"{what} {i}: {err}") from None
    return pairs


def parse_config(text: str) -> CaseConfig:
    """Parse a config file's text (see the module docstring)."""
    pairs = read_pairs(text.splitlines())
    if "case" not in pairs:
        raise ConfigError("config must set 'case'")
    return apply_overrides(case_defaults(pairs.pop("case")), pairs)


def format_config(cfg: CaseConfig) -> str:
    """Echo the effective configuration; round-trips through parse_config."""
    lines = [f"case={cfg.case}"]
    for key in sorted(_TYPES):
        val = getattr(cfg, key)
        if key != "case" and val is not None:
            lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# initial conditions and grids


def maxwellian(v):
    return np.exp(-np.asarray(v, dtype=float) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)


def build_grids(cfg: CaseConfig):
    if cfg.model == VP:
        gx = grids.UniformGrid1D(0.0, cfg.domain_length(), cfg.nx)
        gv = grids.UniformGrid1D(
            -cfg.v_max, cfg.v_max, cfg.nv, bc=grids.NATURAL,
            deriv_lo=cfg.deriv_v, deriv_hi=cfg.deriv_v,
        )
        return gx, gv
    if cfg.model == GC:
        gx = grids.UniformGrid1D(0.0, cfg.Lx, cfg.nx)
        gy = grids.UniformGrid1D(0.0, 2.0 * np.pi, cfg.nv, bc=grids.NATURAL)
        return gx, gy
    half = 12.0
    gx = grids.UniformGrid1D(-half, half, cfg.nx, bc=grids.NATURAL)
    gv = grids.UniformGrid1D(-half, half, cfg.nv, bc=grids.NATURAL)
    return gx, gv


def initial_f(cfg: CaseConfig, g1, g2):
    """Sample the case's initial distribution at the grid nodes."""
    x = g1.nodes()[:, None]
    v = g2.nodes()[None, :]
    if cfg.case == "landau":
        return maxwellian(v) * (1.0 + cfg.alpha * np.cos(cfg.k * x))
    if cfg.case == "two_stream":
        return maxwellian(v) * v**2 * (1.0 - cfg.alpha * np.cos(cfg.k * x))
    if cfg.case == "bump_on_tail":
        n_p = 9.0 / (10.0 * np.sqrt(2.0 * np.pi))
        n_b = 2.0 / (10.0 * np.sqrt(2.0 * np.pi))
        u, v_t = 4.5, 0.5
        bulk = n_p * np.exp(-(v**2) / 2.0)
        beam = n_b * np.exp(-((v - u) ** 2) / (2.0 * v_t**2))
        return (bulk + beam) * (1.0 + cfg.alpha * np.cos(cfg.k * x))
    if cfg.case == "kelvin_helmholtz":
        kx = 2.0 * np.pi / cfg.Lx
        return np.broadcast_to(
            np.sin(v) + cfg.eps * np.sin(v / 2.0) * np.cos(kx * x),
            (g1.n_nodes, g2.n_nodes),
        ).copy()
    if cfg.case == "hill":
        w0 = cfg.omega0
        if w0 is None:
            from .hill import matched_omega0

            try:
                w0 = matched_omega0(hill_coefficient(cfg))
            except ValueError as err:
                raise ConfigError(f"{err}: set omega0, or move a_mean/a_eps") from None
        return np.exp(-(x**2) / (2.0 * w0**2) - w0**2 * v**2 / 2.0)
    raise ConfigError(f"unknown case {cfg.case!r}")


def hill_coefficient(cfg: CaseConfig):
    """The 2*pi-periodic coefficient a(t) of the external-force case."""
    mean, eps = cfg.a_mean, cfg.a_eps

    def a(t):
        return mean + eps * np.cos(t)

    return a

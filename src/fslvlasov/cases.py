"""Benchmark case library and the flat key=value run configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import grids, pushers

VP = "vp"
GC = "gc"
HILL = "hill"

CASES = ("landau", "two_stream", "bump_on_tail", "kelvin_helmholtz", "hill")

SCHEMES = ("fsl", "bsl", "hybrid")


class ConfigError(ValueError):
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

_FIELD_TYPES = {
    "case": str, "scheme": str, "pusher": str, "snapshot_format": str,
    "T": int, "nx": int, "nv": int, "diag_every": int, "snapshot_every": int,
    "dt": float, "t_end": float, "v_max": float, "k": float, "alpha": float,
    "Lx": float, "eps": float, "a_mean": float, "a_eps": float,
    "omega0": float, "deriv_v": float,
}

_POSITIVE = {"T", "nx", "nv", "diag_every", "snapshot_every",
             "dt", "t_end", "v_max", "k", "Lx", "omega0"}


def case_defaults(case: str) -> CaseConfig:
    if case not in _DEFAULTS:
        raise ConfigError(f"unknown case {case!r}; choose from {', '.join(CASES)}")
    return _DEFAULTS[case]


def _convert(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown key {key!r}")
    typ = _FIELD_TYPES[key]
    try:
        if typ is int:
            val = int(raw)
        elif typ is float:
            val = float(raw)
        else:
            val = raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {typ.__name__}")
    return val


def _validate(cfg: CaseConfig) -> CaseConfig:
    for key in _POSITIVE:
        val = getattr(cfg, key)
        if val is not None and not val > 0:
            raise ConfigError(f"key {key!r} must be positive, got {val}")
    for key in ("nx", "nv"):
        if getattr(cfg, key) < grids.MIN_CELLS:
            raise ConfigError(
                f"key {key!r} must be at least {grids.MIN_CELLS}, got {getattr(cfg, key)}"
            )
    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg.scheme!r}")
    if cfg.pusher not in (pushers.GC_PUSHERS if cfg.model == GC else pushers.VP_PUSHERS):
        kind = "guiding-center pusher" if cfg.model == GC else "pusher"
        raise ConfigError(f"unknown {kind} {cfg.pusher!r}")
    if cfg.model == GC and cfg.Lx is None:
        raise ConfigError("kelvin_helmholtz requires Lx")
    steps, lo = cfg.t_end / cfg.dt, max(int(cfg.t_end / cfg.dt), 1)
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


def parse_config(text: str) -> CaseConfig:
    """Parse the flat key=value format ('#' comments, one pair per line)."""
    pairs = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected key=value, got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key in pairs:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        try:
            pairs[key] = _convert(key, raw)
        except ConfigError as err:
            raise ConfigError(f"line {ln}: {err}") from None
    if "case" not in pairs:
        raise ConfigError("config must set 'case'")
    cfg = case_defaults(pairs.pop("case"))
    return apply_overrides(cfg, pairs)


def format_config(cfg: CaseConfig) -> str:
    """Echo the effective configuration; round-trips through parse_config."""
    lines = [f"case={cfg.case}"]
    for key in sorted(_FIELD_TYPES):
        if key == "case":
            continue
        val = getattr(cfg, key)
        if val is None:
            continue
        if isinstance(val, float):
            lines.append(f"{key}={val!r}")
        else:
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

            w0 = matched_omega0(hill_coefficient(cfg))
        return np.exp(-(x**2) / (2.0 * w0**2) - w0**2 * v**2 / 2.0)
    raise ConfigError(f"unknown case {cfg.case!r}")


def hill_coefficient(cfg: CaseConfig):
    """The 2*pi-periodic coefficient a(t) of the external-force case."""
    mean, eps = cfg.a_mean, cfg.a_eps

    def a(t):
        return mean + eps * np.cos(t)

    return a

"""Line-oriented run configuration: `section.key = value` pairs.

Unknown keys are rejected, every value is validated against the physical
and numerical invariants (float values must be finite), and parse failures
carry the offending line number.  An empty document yields the documented defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import FluidParams
from .spectral import Grid
from .stepper import StepperConfig

__all__ = ["RunConfig", "ConfigError", "parse_config", "DEFAULTS", "config_help"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


INIT_KINDS = ("single-mode", "random-band", "smooth-random")

# key -> (parser, default, description)
DEFAULTS: dict[str, tuple] = {
    "grid.N": (int, 3, "space dimension, >= 2"),
    "grid.M": (int, 32, "points per axis, power of two >= 8"),
    "grid.L": (float, 2.0 * math.pi, "box edge length"),
    "params.mu": (float, 1.0, "shear viscosity, mu > 0"),
    "params.lambda": (float, 0.0, "second viscosity, 2*mu + N*lambda >= 0"),
    "params.rho_bar": (float, 1.0, "background density, > 0"),
    "stepper.dt": (float, 1e-3, "time step"),
    "stepper.n": (float, None, "truncation radius; default M (covers the lattice)"),
    "stepper.t_end": (float, 1.0, "final time"),
    "init.kind": (str, "random-band", " | ".join(INIT_KINDS)),
    "init.amplitude": (float, 1e-3, "target initial energy norm, >= 0"),
    "init.seed": (int, 0, "RNG seed for random data"),
    "init.band_lo": (int, 0, "lowest shell populated by random-band"),
    "init.band_hi": (int, 2, "highest shell populated by random-band"),
    "monitor.stride": (int, 10, "steps between monitor samples"),
    "energy.K": (float, 0.0, "convection-weight gain in post-processing"),
    "energy.bound": (float, 16.0, "global-bound factor: E(t) <= bound * E(0), > 0"),
    "perturb.delta": (float, 1e-6, "perturbation amplitude for the stability driver"),
    "output.dir": (str, "out", "artifact directory"),
}


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: FluidParams
    stepper: StepperConfig
    init_kind: str
    amplitude: float
    seed: int
    band_lo: int
    band_hi: int
    monitor_stride: int
    k_weight: float
    bound: float
    perturb_delta: float
    output_dir: str


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'section.key = value', got {line.strip()!r}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        raw[key] = (value, lineno)

    values: dict[str, object] = {}
    for key, (caster, default, _) in DEFAULTS.items():
        if key in raw:
            text_value, lineno = raw[key]
            try:
                values[key] = caster(text_value)
                if caster is float and not math.isfinite(values[key]):
                    raise ValueError(f"non-finite value {text_value!r}")
            except ValueError as exc:
                raise ConfigError(f"invalid value for {key}: {exc}", lineno) from exc
        else:
            values[key] = default

    def fail(key: str, message: str) -> ConfigError:
        lineno = raw[key][1] if key in raw else None
        return ConfigError(f"{key}: {message}", lineno)

    try:
        grid = Grid(dim=values["grid.N"], size=values["grid.M"], length=values["grid.L"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    try:
        params = FluidParams(
            mu=values["params.mu"],
            lam=values["params.lambda"],
            rho_bar=values["params.rho_bar"],
            dim=grid.dim,
        )
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc

    n = values["stepper.n"] if values["stepper.n"] is not None else float(grid.size)
    try:
        stepper = StepperConfig(dt=values["stepper.dt"], n=n, t_end=values["stepper.t_end"])
    except ValueError as exc:
        raise ConfigError(f"stepper: {exc}") from exc
    if n <= 1.0:
        raise fail("stepper.n", f"truncation radius must exceed 1, got {n}")

    kind = values["init.kind"]
    if kind not in INIT_KINDS:
        raise fail("init.kind", f"expected one of {INIT_KINDS}, got {kind!r}")
    if values["init.amplitude"] < 0:
        raise fail("init.amplitude", "amplitude must be >= 0")
    if values["init.band_hi"] < values["init.band_lo"]:
        raise fail("init.band_hi", "band_hi must be >= band_lo")
    if values["monitor.stride"] < 1:
        raise fail("monitor.stride", "stride must be >= 1")
    if values["energy.bound"] <= 0:
        raise fail("energy.bound", "bound factor must be positive")
    if values["perturb.delta"] < 0:
        raise fail("perturb.delta", "delta must be >= 0")

    return RunConfig(
        grid=grid,
        params=params,
        stepper=stepper,
        init_kind=kind,
        amplitude=values["init.amplitude"],
        seed=values["init.seed"],
        band_lo=values["init.band_lo"],
        band_hi=values["init.band_hi"],
        monitor_stride=values["monitor.stride"],
        k_weight=values["energy.K"],
        bound=values["energy.bound"],
        perturb_delta=values["perturb.delta"],
        output_dir=values["output.dir"],
    )


def config_help() -> str:
    lines = ["configuration keys (section.key = value, '#' comments):"]
    for key, (caster, default, desc) in DEFAULTS.items():
        shown = default if default is not None else "<derived>"
        lines.append(f"  {key:<18} default {shown!r:<24} {desc}")
    return "\n".join(lines)

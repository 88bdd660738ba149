"""Pseudo-spectral periodic-box solver in damped (h, c, I) variables.

Subpackages: `spectral` (grids, transforms, multiplier operators), `lp`
(dyadic shells and Besov-type norms), `model` (the reformulated fluid
system), `stepper` (Friedrichs truncation and time integration), `energy`
(frequency-localized energy diagnostics), and the run harness (`config`,
`initial_data`, `records`, `experiments`, `cli`).
"""

from .spectral import (
    Grid,
    SpectralField,
    apply_lambda,
    helmholtz_decompose,
    helmholtz_recompose,
)
from .lp import besov_norm, hybrid_norm, dyadic_block
from .model import FluidParams, NspState, PrimitiveState, from_primitive
from .stepper import FriedrichsProjector, FriedrichsStepper, StepperConfig
from .energy import EnergyMonitor, EstimateConstants, compute_constants

__all__ = [
    "Grid",
    "SpectralField",
    "apply_lambda",
    "helmholtz_decompose",
    "helmholtz_recompose",
    "besov_norm",
    "hybrid_norm",
    "dyadic_block",
    "FluidParams",
    "NspState",
    "PrimitiveState",
    "from_primitive",
    "FriedrichsProjector",
    "FriedrichsStepper",
    "StepperConfig",
    "EnergyMonitor",
    "EstimateConstants",
    "compute_constants",
]

__version__ = "0.1.0"

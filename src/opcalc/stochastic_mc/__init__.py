"""Seeded Monte Carlo on flat-torus bundle models with exact spectral oracles."""

from .bridge import sample_bridge_batch, sample_winding
from .engine import (
    FkResult,
    apply_moment_pattern,
    fk_estimate,
    moment_scaling_probe,
    simulate_functionals,
)
from .levy import LevyAreaResult, levy_area_estimate
from .localize import (
    LocalizationResult,
    localization_check,
    localization_value,
    small_time_limit,
    spin_torus_model,
)
from .model import (
    PerturbationSpec,
    TorusModel,
    heat_kernel,
    spectral_phi_kernel,
    winding_cutoff,
)

__all__ = [
    "FkResult",
    "LevyAreaResult",
    "LocalizationResult",
    "PerturbationSpec",
    "TorusModel",
    "apply_moment_pattern",
    "fk_estimate",
    "heat_kernel",
    "levy_area_estimate",
    "localization_check",
    "localization_value",
    "moment_scaling_probe",
    "sample_bridge_batch",
    "sample_winding",
    "simulate_functionals",
    "small_time_limit",
    "spectral_phi_kernel",
    "spin_torus_model",
    "winding_cutoff",
]

"""Arrival-time statistics of frequency-entangled photon states in
dispersive media: closed-form Gaussian timing laws, empirical air
dispersion, an independent quadrature oracle, and stochastic checks."""

__version__ = "0.1.0"

import importlib

from .constants import (
    omega_from_wavelength_nm,
    sigma_phi_from_rad_per_s,
    wavelength_nm_from_omega,
)
from .distributions import (
    StateKind,
    StateSpec,
    TimingDistribution,
    TimingVariable,
    asymptotic_width,
    classical_shot_noise,
    classical_width,
    density_at,
    gated_detector_distribution,
    quantum_classical_ratio,
    quantum_distribution,
    quantum_width,
    transition_photon_number,
)
from .errors import CancellationError, ConvergenceError, DomainError
from .media import (
    AirConditions,
    MediumSegment,
    PathPair,
    REFERENCE_AIR,
    air_dispersion_coefficient,
    beta_from_index,
    catalog_segment,
    edlen_refractivity,
    equivalent_air_length,
    material_catalog,
    owens_refractivity,
    path_coefficients,
    reference_air_beta,
)
from .spectral import GaussianSpectrum

# The sampler and the oracle load on first use (PEP 562), so that importing
# the package, or the CLI for a command that neither samples nor verifies,
# does not pay for them or for the thread pool module.  Nothing imported here
# loads numpy either: the closed forms compute scalars with math and import
# numpy only for arrays, so the package, and the width, transition and media
# commands, run without it.
_LAZY = {
    **dict.fromkeys(
        ("SamplerConfig", "WidthEstimate", "sample_classical", "sample_classical_scaling",
         "sample_quantum"),
        "montecarlo"),
    **dict.fromkeys(
        ("QuadratureSpec", "VerificationReport", "amplitude_numeric",
         "numeric_central_moment", "numeric_moments", "verify_closed_form"),
        "oracle"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "__version__",
    "AirConditions",
    "CancellationError",
    "ConvergenceError",
    "DomainError",
    "GaussianSpectrum",
    "MediumSegment",
    "PathPair",
    "QuadratureSpec",
    "REFERENCE_AIR",
    "SamplerConfig",
    "StateKind",
    "StateSpec",
    "TimingDistribution",
    "TimingVariable",
    "VerificationReport",
    "WidthEstimate",
    "air_dispersion_coefficient",
    "amplitude_numeric",
    "asymptotic_width",
    "beta_from_index",
    "catalog_segment",
    "classical_shot_noise",
    "classical_width",
    "density_at",
    "edlen_refractivity",
    "equivalent_air_length",
    "gated_detector_distribution",
    "material_catalog",
    "numeric_central_moment",
    "numeric_moments",
    "omega_from_wavelength_nm",
    "owens_refractivity",
    "path_coefficients",
    "quantum_classical_ratio",
    "quantum_distribution",
    "quantum_width",
    "reference_air_beta",
    "sample_classical",
    "sample_classical_scaling",
    "sample_quantum",
    "sigma_phi_from_rad_per_s",
    "transition_photon_number",
    "verify_closed_form",
    "wavelength_nm_from_omega",
]

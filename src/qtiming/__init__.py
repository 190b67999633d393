"""Arrival-time statistics of frequency-entangled photon states in
dispersive media: closed-form Gaussian timing laws, empirical air
dispersion, an independent quadrature oracle, and stochastic checks."""

__version__ = "0.1.0"

import importlib

# The package's modules and the names it exports from each.  Nothing loads
# until a name is used (PEP 562): ``qtiming.quantum_width`` imports
# ``qtiming.distributions``, and ``qtiming.media`` imports that module.  So
# a bare ``import qtiming`` loads no submodule, and the CLI, which imports
# its modules itself, loads neither the sampler nor the oracle (nor numpy)
# for a command that does not run them.
_EXPORTS = {
    "constants": "omega_from_wavelength_nm sigma_phi_from_rad_per_s wavelength_nm_from_omega",
    "distributions": """StateKind StateSpec TimingDistribution TimingVariable asymptotic_width
        classical_shot_noise classical_width density_at gated_detector_distribution
        quantum_classical_ratio quantum_distribution quantum_width transition_photon_number""",
    "errors": "CancellationError ConvergenceError DomainError",
    "media": """AirConditions MediumSegment PathPair REFERENCE_AIR air_dispersion_coefficient
        beta_from_index catalog_segment edlen_refractivity equivalent_air_length
        material_catalog owens_refractivity path_coefficients reference_air_beta""",
    "spectral": "GaussianSpectrum",
    "montecarlo": "SamplerConfig WidthEstimate sample_classical sample_classical_scaling "
                  "sample_quantum",
    "oracle": """VerificationReport amplitude_numeric numeric_central_moment numeric_moments
        verify_closed_form""",
    "verify": "",
    "cli": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    # Importing a submodule binds its name here; an export is bound once read.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

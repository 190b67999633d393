"""Unit system and physical constants.

Internal units everywhere in this package:

* time        femtoseconds (fs)
* frequency   rad/fs  (angular)
* length      centimetres (cm)

With these, group-delay coefficients are fs/cm, group-delay-dispersion
coefficients fs^2/cm, and spectral widths of order 1e-4 rad/fs, so all
working quantities stay near unity.  Public entry points that accept SI
values (rad/s, nm) convert at the boundary.
"""

import math

from .errors import DomainError

__all__ = [
    "C_CM_PER_FS",
    "C_NM_PER_FS",
    "RAD_PER_S_TO_RAD_PER_FS",
    "TWO_PI",
    "omega_from_wavelength_nm",
    "wavelength_nm_from_omega",
    "sigma_phi_from_rad_per_s",
]

C_CM_PER_FS = 2.99792458e-5
"""Speed of light in vacuum, cm/fs."""

C_NM_PER_FS = 299.792458
"""Speed of light in vacuum, nm/fs."""

RAD_PER_S_TO_RAD_PER_FS = 1e-15
"""Angular-frequency conversion factor (1 s = 1e15 fs)."""

TWO_PI = 6.283185307179586


def omega_from_wavelength_nm(wavelength_nm: float) -> float:
    """Angular frequency (rad/fs) of light with the given vacuum wavelength."""
    if not 0 < wavelength_nm < math.inf:
        raise DomainError(f"wavelength must be finite and positive, got {wavelength_nm} nm")
    return TWO_PI * C_NM_PER_FS / wavelength_nm


def wavelength_nm_from_omega(omega: float) -> float:
    """Vacuum wavelength (nm) for an angular frequency in rad/fs."""
    if not 0 < omega < math.inf:
        raise DomainError(f"angular frequency must be finite and positive, got {omega} rad/fs")
    return TWO_PI * C_NM_PER_FS / omega


def sigma_phi_from_rad_per_s(sigma_phi_rad_per_s: float) -> float:
    """Convert a spectral width quoted in rad/s to internal rad/fs."""
    return sigma_phi_rad_per_s * RAD_PER_S_TO_RAD_PER_FS

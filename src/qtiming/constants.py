"""Unit system and physical constants.

Internal units everywhere in this package:

* time        femtoseconds (fs)
* frequency   rad/fs  (angular)
* length      centimetres (cm)

With these, group-delay coefficients are fs/cm, group-delay-dispersion
coefficients fs^2/cm, and spectral widths of order 1e-4 rad/fs, so all
working quantities stay near unity.  Public entry points that accept SI
values (rad/s, nm) convert at the boundary.

The module also holds the float64 validity rules every law applies: a
bandwidth passes :func:`_check_bandwidth`, other inputs
:func:`_check_finite`, and a result leaves through :func:`_finite_or_raise`,
which names the inputs where it overflows or underflows.
"""

import math

from .errors import DomainError

__all__ = [
    "C_CM_PER_FS",
    "C_NM_PER_FS",
    "RAD_PER_S_TO_RAD_PER_FS",
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


def _check_bandwidth(sigma_phi: float) -> None:
    """DomainError unless ``sigma_phi`` (rad/fs), its fourth power and that power's reciprocal
    are finite and positive: then every closed form can square the curvature 1/(2 sigma_phi^2).
    In rad/s that range is roughly 1e-62 to 1e92."""
    sigma_phi = float(sigma_phi)  # np.float64 would warn on overflow; a float gives inf
    fourth = (sigma_phi * sigma_phi) * (sigma_phi * sigma_phi)
    if not (0 < sigma_phi < math.inf and 0 < fourth < math.inf and 1.0 / fourth < math.inf):
        raise DomainError(f"sigma_phi must be finite and positive with a finite, non-zero fourth "
                          f"power and reciprocal, got {sigma_phi} rad/fs")


def _check_finite(positive: bool = False, **inputs) -> None:
    """DomainError, naming an array's first bad element, unless each input is finite (and > 0)."""
    for name, value in inputs.items():
        if isinstance(value, (int, float)):
            if (0 < value < math.inf) if positive else math.isfinite(value):
                continue
        else:
            import numpy as np

            valid = (value > 0) & (value < math.inf) if positive else np.isfinite(value)
            if valid.all():
                continue
            value = np.asarray(value)[~valid][0]  # an np.int64 too
        raise DomainError(f"{name} = {value:g} is not finite{' and positive' if positive else ''}")


def _finite_or_raise(result, law: str, sigma_phi: float | None, positive=True, **inputs):
    """``result`` as a float or array, or DomainError naming the inputs where it leaves float64.

    A result that is not finite has overflowed; one that is 0 where the law's
    exact value is positive (``positive``) has underflowed.
    """
    if isinstance(result, float):
        if math.isfinite(result) and (result > 0 or not positive):
            return float(result)
        overflowed = not math.isfinite(result)
    else:
        import numpy as np

        valid = np.isfinite(result) & (result > 0) if positive else np.isfinite(result)
        if valid.all():
            return result
        overflowed = not np.isfinite(result[~valid][0])
        inputs = {name: np.broadcast_to(value, result.shape)[~valid][0]
                  for name, value in inputs.items()}
    named = [f"sigma_phi = {sigma_phi:g} rad/fs"] if sigma_phi is not None else []
    named += [f"{name} = {value:g}" for name, value in inputs.items()]
    raise DomainError(f"{law} {'overflows' if overflowed else 'underflows'} float64 "
                      f"at {', '.join(named)}")


def _two_pi_c_over(value: float, name: str, unit: str) -> float:
    """2 pi c / ``value``: the angular frequency of a wavelength, or the wavelength of one."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value} {unit}")
    if (converted := math.tau * C_NM_PER_FS / value) == math.inf:
        raise DomainError(f"{name} {value} {unit} is too small: its conversion overflows float64")
    return converted


def omega_from_wavelength_nm(wavelength_nm: float) -> float:
    """Angular frequency (rad/fs) of light with the given vacuum wavelength."""
    return _two_pi_c_over(wavelength_nm, "wavelength", "nm")


def wavelength_nm_from_omega(omega: float) -> float:
    """Vacuum wavelength (nm) for an angular frequency in rad/fs."""
    return _two_pi_c_over(omega, "angular frequency", "rad/fs")


def sigma_phi_from_rad_per_s(sigma_phi_rad_per_s: float) -> float:
    """A spectral width quoted in rad/s in internal rad/fs, under :func:`_check_bandwidth`."""
    sigma_phi = sigma_phi_rad_per_s * RAD_PER_S_TO_RAD_PER_FS
    _check_bandwidth(sigma_phi)
    return sigma_phi

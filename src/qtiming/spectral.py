"""Gaussian spectral envelope and its time-domain widths."""

from __future__ import annotations

import math

from ._record import record
from .constants import _check_bandwidth, sigma_phi_from_rad_per_s

__all__ = ["GaussianSpectrum"]


@record
class GaussianSpectrum:
    """Unnormalised Gaussian spectral amplitude about a carrier.

    sigma_phi : one-sigma amplitude width, rad/fs

    The amplitude is exp(-detuning^2 / (2 sigma_phi^2)); no normalisation
    constant is carried since every probability density downstream is
    normalised at the final step.

    ``sigma_phi`` obeys the closed forms' bandwidth rule: finite and positive,
    with a finite, non-zero fourth power and reciprocal.
    """

    sigma_phi: float

    def __post_init__(self):
        _check_bandwidth(self.sigma_phi)

    @classmethod
    def from_si(cls, sigma_phi_rad_per_s: float) -> "GaussianSpectrum":
        """Build from a bandwidth in rad/s."""
        return cls(sigma_phi_from_rad_per_s(sigma_phi_rad_per_s))

    def intensity_width(self) -> float:
        """One-sigma width (fs) of the time-domain intensity envelope.

        The Fourier transform of the Gaussian amplitude has intensity
        variance 1/(2 sigma_phi^2), so the width is 1/(sqrt(2) sigma_phi):
        time-bandwidth reciprocity for this family is
        width * sigma_phi = 1/sqrt(2) exactly.
        """
        return 1.0 / (math.sqrt(2.0) * self.sigma_phi)

"""Gaussian spectral envelope and its time-domain widths."""

from __future__ import annotations

import math

from ._record import record
from .constants import sigma_phi_from_rad_per_s
from .errors import DomainError

__all__ = ["GaussianSpectrum"]


@record
class GaussianSpectrum:
    """Unnormalised Gaussian spectral amplitude about a carrier.

    sigma_phi : one-sigma amplitude width, rad/fs

    The amplitude is exp(-detuning^2 / (2 sigma_phi^2)); no normalisation
    constant is carried since every probability density downstream is
    normalised at the final step.

    ``sigma_phi`` must be finite and positive, and so must its fourth power
    and that power's reciprocal: the closed forms square the curvature
    1/(2 sigma_phi^2), and a bandwidth past that float64 range would
    overflow or divide by zero there.  In rad/s that range is roughly
    1e-62 to 1e92.
    """

    sigma_phi: float

    def __post_init__(self):
        square = self.sigma_phi * self.sigma_phi
        fourth = square * square
        if not (0 < self.sigma_phi < math.inf and 0 < fourth < math.inf
                and 1.0 / fourth < math.inf):
            raise DomainError(
                f"sigma_phi must be finite and positive with a finite, non-zero fourth "
                f"power and reciprocal, got {self.sigma_phi} rad/fs"
            )

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

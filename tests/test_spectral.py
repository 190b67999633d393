"""Tests for the Gaussian spectral envelope and its time-domain widths."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtiming.errors import DomainError
from qtiming.spectral import GaussianSpectrum

SIGMA_PHI = 3.7e-4  # rad/fs
SIGMA_G = 1911.0994086122903  # fs, = 1/(sqrt(2) * 3.7e-4), mpmath-checked


@pytest.fixture
def spectrum():
    return GaussianSpectrum.from_si(3.7e11)


def test_from_si_converts_units(spectrum):
    assert spectrum.sigma_phi == pytest.approx(SIGMA_PHI)


def test_intensity_width_value(spectrum):
    assert spectrum.intensity_width() == pytest.approx(SIGMA_G, rel=1e-12)


def test_time_bandwidth_reciprocity(spectrum):
    assert spectrum.intensity_width() * spectrum.sigma_phi == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-15
    )


@given(st.floats(min_value=1e-6, max_value=1e-2))
def test_doubling_bandwidth_halves_width(sigma_phi):
    narrow = GaussianSpectrum(sigma_phi=sigma_phi)
    wide = GaussianSpectrum(sigma_phi=2 * sigma_phi)
    assert wide.intensity_width() == pytest.approx(narrow.intensity_width() / 2, rel=1e-15)


def test_intensity_width_matches_quadrature_oracle(spectrum):
    # Fourier-transform the spectral amplitude numerically and take the
    # second moment of the intensity envelope; no closed form involved.
    nodes, weights = np.polynomial.legendre.leggauss(300)
    eps = 10.0 * spectrum.sigma_phi * nodes
    w_eps = 10.0 * spectrum.sigma_phi * weights

    t_half = 8.0 * 2.0 / spectrum.sigma_phi  # conservative cover of the envelope
    t = t_half * nodes
    w_t = t_half * weights

    amplitude = np.exp(-eps**2 / (2.0 * spectrum.sigma_phi**2))
    packet = (amplitude[None, :] * np.exp(-1j * np.outer(t, eps))) @ w_eps
    intensity = np.abs(packet) ** 2
    mass = w_t @ intensity
    mean = (w_t @ (t * intensity)) / mass
    variance = (w_t @ ((t - mean) ** 2 * intensity)) / mass
    assert math.sqrt(variance) == pytest.approx(spectrum.intensity_width(), rel=1e-6)


@pytest.mark.parametrize("sigma_phi", [0.0, -1.0])
def test_nonpositive_bandwidth_rejected(sigma_phi):
    with pytest.raises(DomainError):
        GaussianSpectrum(sigma_phi=sigma_phi)


@pytest.mark.parametrize("sigma_phi", [math.inf, math.nan])
def test_non_finite_bandwidth_rejected(sigma_phi):
    with pytest.raises(DomainError):
        GaussianSpectrum(sigma_phi=sigma_phi)


@pytest.mark.parametrize("sigma_phi", [1e293, 1e78, 1e-78, 1e-323])
def test_bandwidth_outside_fourth_power_range_rejected(sigma_phi):
    # The closed forms use sigma_phi^4 (the squared curvature) and its
    # reciprocal; either leaving float64 used to end in an OverflowError
    # or a ZeroDivisionError downstream.
    with pytest.raises(DomainError, match="sigma_phi"):
        GaussianSpectrum(sigma_phi=sigma_phi)


@pytest.mark.parametrize("sigma_phi", [1e76, 1e-77])
def test_bandwidth_inside_fourth_power_range_accepted(sigma_phi):
    assert GaussianSpectrum(sigma_phi=sigma_phi).sigma_phi == sigma_phi

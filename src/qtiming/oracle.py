"""Independent numerical evaluation of the raw amplitude integrals.

Every closed form in :mod:`qtiming.distributions` descends from one
oscillatory Gaussian integral.  In the standardised variable u =
detuning/sigma_phi it reads

    I(b, z) = integral over [-H, H] of exp(-u^2/2 + i(b u^2 - z u)) du

with b = N * gdd_sum * sigma_phi^2 (dimensionless dispersion phase) and
z = N * sigma_phi * (tau - mean offset).  This module sums the raw
integrand *before* any completing-the-square step, so it can confirm or
refute the closed forms independently.

Rule: the integrand is entire and damped like exp(-u^2/2), so the uniform
trapezoid rule on [-H, H] converges geometrically in the step h (Trefethen
& Weideman, SIAM Rev. 56, 385 (2014)).  The steps form a fixed nested
ladder, h = 2H / (4 * 2^j), and each halving evaluates only the new odd
nodes, reusing the rest.  The error estimate of a level is its change from
the level before (h against h/2).  The phase advances by |2bu - z| per
unit u, so the largest local frequency is 2|b|H + |z|.  A level counts as
converged only once its step resolves that frequency, with 2 pi / h at
least 1.5 times it: two coarser, aliased sums can agree with each other
and still be wrong.  When the budget runs out first,
:class:`ConvergenceError` carries the smallest estimate the ladder reached.
Evaluation is vectorised over z in blocks of at most 2^18 complex values
(one z per block when its new nodes alone exceed that), and each z's
result depends only on (b, z, quadrature spec), not on its block.

Moments of |I(b, z)|^2 over z, the normaliser M_0 included, come from
Plancherel's theorem instead: integral (z - m)^k |I|^2 dz is 2 pi times an
integral over u of exp(-u^2) times a polynomial built from the raw
integrand's derivatives.  That weight does not oscillate, so one plain
trapezoid on a fixed node set gives every moment at any b.
:func:`verify_closed_form` compares the closed form with the numeric
density N sigma_phi |I(z)|^2 / M_0, and its ``points_used`` counts the
ladder's integrand evaluations at the grid points.

The combinatorial 1/N! prefactor is dropped, matching the normalisation
convention of the closed forms.  The resolving step takes about |b| H^2
nodes per amplitude (1e5 at |b| = 1e3), so beyond a dispersion phase of
``PHASE_ENVELOPE_RAD`` amplitudes and densities raise
:class:`DomainError` rather than silently degrading (the closed forms
remain available at any scale).  The moments cost the same at every b and
have no such limit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import (StateKind, StateSpec, _coherent_scale, density_at,
                            quantum_distribution)
from .errors import ConvergenceError, DomainError
from .media import PathPair
from .spectral import GaussianSpectrum

__all__ = [
    "QuadratureSpec",
    "VerificationReport",
    "amplitude_numeric",
    "verify_closed_form",
    "numeric_moments",
    "numeric_central_moment",
    "PHASE_ENVELOPE_RAD",
]

PHASE_ENVELOPE_RAD = 1.0e3
"""Largest dispersion phase |N * gdd_sum * sigma_phi^2| (rad) of an amplitude."""

_COARSEST_INTERVALS = 4    # ladder level j splits [-H, H] into 4 * 2**j intervals
_RESOLVE_SAFETY = 1.5      # least ratio of 2 pi / h to the largest local frequency
_BLOCK_ENTRIES = 1 << 18   # complex integrand values held at once (one row at least)
_ENVELOPE_MASS = math.sqrt(2.0 * math.pi)  # integral of exp(-u^2/2): the absolute mass
_MOMENT_STEP = 1.0 / 64    # trapezoid step in u of the Plancherel moments
_MOMENT_REACH = 28.0       # exp(-u^2) is 0.0 in float64 beyond it: farther nodes add nothing


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the trapezoid quadrature.

    half_width : integration window in units of sigma_phi (finite, >= 6;
                 the envelope beyond 6 sigma contributes < 2e-8 of the mass)
    max_points : budget of integrand evaluations per amplitude (an integer)
    rel_tol    : target error relative to the amplitude scale (>= 1e-12)
    """

    half_width: float = 10.0
    max_points: int = 6_000_000
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.half_width) and self.half_width >= 6):
            raise DomainError(f"half_width must be finite and >= 6, got {self.half_width}")
        if not self.rel_tol >= 1e-12:
            raise DomainError(f"rel_tol must be >= 1e-12, got {self.rel_tol}")
        if not isinstance(self.max_points, numbers.Integral) or self.max_points < 15:
            raise DomainError(f"max_points must be an integer >= 15, got {self.max_points!r}")


@dataclass(frozen=True)
class VerificationReport:
    """Closed-form vs numeric densities on a grid of observable values."""

    grid: list[float]                    # fs
    closed_form: list[float]             # 1/fs
    numeric: list[float]                 # 1/fs
    max_rel_err: float
    points_used: int

    def to_dict(self) -> dict:
        return {
            "grid_fs": list(self.grid),
            "closed_form_per_fs": list(self.closed_form),
            "numeric_per_fs": list(self.numeric),
            "max_rel_err": self.max_rel_err,
            "points_used": self.points_used,
        }


def _trapezoid_integral(
    b: float, zs: np.ndarray, quad: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray, int]:
    """Trapezoid values of I(b, z) for each of ``zs``: (values, errors, points).

    Every z walks the same nested ladder of uniform steps, and each level
    adds only the odd nodes between the previous ones.  A z is done at the
    first level whose step resolves its largest local frequency and whose
    change from the previous level is within the tolerance.  Its value
    depends on nothing but (b, z, quad): not on the other zs, nor on how
    the zs are split into blocks.  Beyond ``PHASE_ENVELOPE_RAD`` it raises
    :class:`DomainError`, since the resolving step grows with |b|.
    """
    if abs(b) > PHASE_ENVELOPE_RAD:
        raise DomainError(
            f"dispersion phase |N * gdd_sum * sigma_phi^2| = {abs(b):.3e} rad exceeds "
            f"the validated quadrature envelope of {PHASE_ENVELOPE_RAD:.0e} rad; "
            "the closed forms and the numeric moments remain available at this scale"
        )
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if not np.isfinite(zs).all():
        raise DomainError("observable values must be finite")
    half = quad.half_width
    top = ((quad.max_points - 1) // _COARSEST_INTERVALS).bit_length() - 1
    # First level with step <= 2 pi / (safety * (2|b|H + |z|)).
    oversampling = (_RESOLVE_SAFETY * half / (math.pi * _COARSEST_INTERVALS)
                    * (2.0 * abs(b) * half + np.abs(zs)))
    resolved = np.maximum(np.ceil(np.log2(np.maximum(oversampling, 1.0))), 1.0)

    node_sums = np.zeros(zs.shape, dtype=complex)
    values = np.zeros(zs.shape, dtype=complex)
    errors = np.full(zs.shape, np.inf)
    achieved = np.full(zs.shape, np.inf)   # smallest estimate on the ladder so far
    level = np.zeros(zs.shape, dtype=int)
    pending = np.ones(zs.shape, dtype=bool)
    for j in range(top + 1):
        rows = np.flatnonzero(pending)
        if rows.size == 0:
            break
        intervals = _COARSEST_INTERVALS << j
        step = 2.0 * half / intervals
        if j == 0:
            u = np.linspace(-half, half, intervals + 1)
            weights = np.ones(u.size)
            weights[[0, -1]] = 0.5
        else:
            u = -half + step * np.arange(1, intervals, 2)
            weights = 1.0
        envelope = weights * np.exp(-0.5 * u * u + 1j * (b * u * u))
        per_block = max(1, _BLOCK_ENTRIES // u.size)
        for lo in range(0, rows.size, per_block):
            block = rows[lo:lo + per_block]
            phase = np.multiply.outer(zs[block], -u)
            f = np.empty(phase.shape, dtype=complex)  # exp(-i z u), filled in place
            np.cos(phase, out=f.real)
            np.sin(phase, out=f.imag)
            f *= envelope
            node_sums[block] += f.sum(axis=1)
        previous = values[rows]
        values[rows] = current = step * node_sums[rows]
        level[rows] = j
        if j == 0:
            continue
        estimate = np.abs(current - previous)
        errors[rows] = estimate
        achieved[rows] = np.minimum(achieved[rows], estimate)
        # Tail-safe scale: when cancellation makes |I| tiny, hold the target
        # to a fixed fraction of the absolute mass instead.
        target = quad.rel_tol * np.maximum(np.abs(current), 1e-3 * _ENVELOPE_MASS)
        pending[rows[(j >= resolved[rows]) & (estimate <= target)]] = False

    points = (_COARSEST_INTERVALS << level) + 1
    if pending.any():
        first = int(np.flatnonzero(pending)[0])
        needed = (_COARSEST_INTERVALS << int(resolved[first])) + 1
        unresolved = (f"; resolving its phase takes {needed} points"
                      if needed > quad.max_points else "")
        raise ConvergenceError(
            f"quadrature budget of {quad.max_points} points exhausted at z = {zs[first]:.6g} "
            f"(error estimate {achieved[first]:.3e}{unresolved})",
            achieved=float(achieved[first]),
            points_used=int(points[first]),
        )
    return values, errors, int(points.sum())


def _oscillatory_gaussian_integral(
    b: float, z: float, quad: QuadratureSpec
) -> tuple[complex, float, int]:
    """I(b, z) for one z; returns (value, err, points)."""
    values, errors, points = _trapezoid_integral(b, np.array([z], dtype=float), quad)
    return complex(values[0]), float(errors[0]), points


def _plancherel_moments(b: float, order: int, quad: QuadratureSpec) -> tuple[float, np.ndarray]:
    """(<z>, central moments 0..order of |I(b, z)|^2 over z), by Plancherel.

    I(b, .) is the Fourier transform of g(u) = exp(-u^2/2 + i b u^2) on
    [-H, H], and (z - m) times it is the transform of (-i d/du - m) g.  So
    integral (z - m)^k |I|^2 dz = 2 pi integral exp(-u^2) P_k(u) du, with
    P_0 = 1 and P_{k+1} = -i P_k' + (i + 2b) u P_k - m P_k.  The weight
    exp(-u^2) = |g|^2 does not oscillate at any b, so a plain trapezoid on
    a fixed node set converges, and the cost does not grow with |b|.
    """
    reach = int(min(quad.half_width, _MOMENT_REACH) / _MOMENT_STEP)
    u = _MOMENT_STEP * np.arange(-reach, reach + 1)
    term = np.exp(-u * u)
    term[[0, -1]] *= 0.5
    # 2 pi times the trapezoid value of integral exp(-u^2) u^j du, j = 0..order.
    scale = 2.0 * math.pi * _MOMENT_STEP
    powers = []
    for _ in range(max(order, 1) + 1):
        powers.append(scale * term.sum())
        term *= u
    powers = np.array(powers)

    def central(mean: float, top: int) -> np.ndarray:
        poly = np.zeros(top + 1, dtype=complex)  # P_k's coefficients, lowest power first
        poly[0] = 1.0
        moments = [powers[0]]
        for _ in range(top):
            derivative = np.append(poly[1:] * np.arange(1, top + 1), 0.0)
            poly = -1j * derivative + (1j + 2.0 * b) * np.append(0.0, poly[:-1]) - mean * poly
            moments.append((poly * powers[:top + 1]).sum().real)
        return np.array(moments)

    first = central(0.0, 1)
    mean = float(first[1] / first[0])
    return mean, central(mean, order)


def _case_geometry(
    state: StateSpec, spectrum: GaussianSpectrum, paths: PathPair
) -> tuple[float, float]:
    """(b, mean) of one case, computed once and shared by every tau.

    ``mean`` is the oracle's own choice of the linear offset (delay sum for
    correlated states, difference otherwise), not the closed form's.
    """
    delay1, gdd1, delay2, gdd2 = paths.coefficients()
    b = state.n_photons * (gdd1 + gdd2) * spectrum.sigma_phi**2
    mean = delay1 + delay2 if state.kind is StateKind.CORRELATED_FOCK else delay1 - delay2
    return b, mean


def amplitude_numeric(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    tau: float,
    quad: QuadratureSpec | None = None,
) -> complex:
    """Detection amplitude at observable value ``tau`` (fs), by quadrature.

    For anti-correlated and coherent states ``tau`` is the difference of
    mean detection times; for correlated states it is their sum.  The
    1/N! prefactor is dropped; the coherent magnitude factor |v|^N |u|^N
    is included.
    """
    b, mean = _case_geometry(state, spectrum, paths)
    sigma_phi = spectrum.sigma_phi
    value, _, _ = _oscillatory_gaussian_integral(
        b, state.n_photons * sigma_phi * (tau - mean), quad or QuadratureSpec())
    return _coherent_scale(state, state.n_photons) * (sigma_phi * value)


def verify_closed_form(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    grid,
    quad: QuadratureSpec | None = None,
) -> VerificationReport:
    """Compare the normalised numeric density against the closed form.

    The numeric side is N sigma_phi |I(z)|^2 / M_0, with I(z) summed by
    the trapezoid ladder at each grid point and the normaliser M_0 =
    integral |I|^2 dz taken by Plancherel; at no point does it use the
    completed-square result.  The maximum relative error is taken over
    grid points where the closed-form density exceeds 1e-8 of its peak
    (further out, the oscillatory integral cancels to below float64
    resolution and a relative comparison means nothing).
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise DomainError("verification grid must be non-empty")
    quad = quad or QuadratureSpec()

    dist = quantum_distribution(state, spectrum, paths)
    closed = np.asarray(density_at(dist, grid))

    b, mean = _case_geometry(state, spectrum, paths)
    scale = state.n_photons * spectrum.sigma_phi
    values, _, points = _trapezoid_integral(b, scale * (grid - mean), quad)
    _, moments = _plancherel_moments(b, 0, quad)
    numeric = scale * np.abs(values) ** 2 / moments[0]

    peak = density_at(dist, dist.mean)
    mask = closed > 1e-8 * peak
    if not np.any(mask):
        raise DomainError("verification grid lies entirely in the far tails of the density")
    max_rel_err = float(np.max(np.abs(numeric[mask] - closed[mask]) / closed[mask]))

    return VerificationReport(
        grid=[float(t) for t in grid],
        closed_form=[float(v) for v in closed],
        numeric=[float(v) for v in numeric],
        max_rel_err=max_rel_err,
        points_used=points,
    )


def _central_moment(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    order: int,
    quad: QuadratureSpec | None,
) -> tuple[float, float]:
    """(mean, central moment of the given order) of the numeric density, in fs."""
    b, offset = _case_geometry(state, spectrum, paths)
    scale = state.n_photons * spectrum.sigma_phi
    centre, moments = _plancherel_moments(b, order, quad or QuadratureSpec())
    return offset + centre / scale, float(moments[order] / moments[0]) / scale**order


def numeric_moments(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    quad: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Mean and width (fs) of the numeric density, by Plancherel moments."""
    mean, variance = _central_moment(state, spectrum, paths, 2, quad)
    return mean, math.sqrt(variance)


def numeric_central_moment(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    order: int,
    quad: QuadratureSpec | None = None,
) -> float:
    """Central moment of the numeric density of the given order."""
    if not isinstance(order, numbers.Integral) or order < 0:
        raise DomainError(f"order must be a non-negative integer, got {order!r}")
    return _central_moment(state, spectrum, paths, order, quad)[1]

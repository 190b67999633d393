"""Independent numerical evaluation of the raw amplitude integrals.

Every closed form in :mod:`qtiming.distributions` descends from one
oscillatory Gaussian integral.  In the standardised variable u =
detuning/sigma_phi it reads

    I(b, z) = integral over [-H, H] of exp(-u^2/2 + i(b u^2 - z u)) du

with b = N * gdd_sum * sigma_phi^2 (dimensionless dispersion phase),
z = N * sigma_phi * (tau - mean offset) and the fixed window H = 10
(``_HALF_WIDTH``; the envelope beyond it is below 2e-22).  This module
sums the raw integrand *before* any completing-the-square step, so it can
confirm or refute the closed forms independently.

Rule: the integrand is entire and damped like exp(-u^2/2), so the uniform
trapezoid rule on the nodes u_k = k h, |u_k| <= H, converges geometrically
in the step h (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).  A grid of
evenly spaced z = z0 + m dz shares one node lattice: with h dz L = 2 pi
for a power of two L at least the grid's size, the sums at every grid
point are one FFT of length L of the node terms folded by k mod L.  A
single z is the same sum with L = 1, starting at h = H / 2.  The steps form
a nested ladder: each level halves h, doubles L and evaluates only the new
odd nodes.  The error estimate of a level is its change from the level
before (h against h/2).  The phase advances by |2bu - z| per unit u, so the
largest local frequency is 2|b|H + max |z|.  A level counts as converged
only once its step resolves that frequency, with 2 pi / h at least 1.5
times it (two coarser, aliased sums can agree with each other and still be
wrong), and once its change is within the fixed tolerance ``_REL_TOL`` =
1e-10 at every grid point.  The point budget ``_MAX_POINTS`` = 6e6 bounds
each lattice's integrand evaluations and FFT length; when it runs out first,
:class:`ConvergenceError` carries the smallest estimate the ladder reached.
A value depends only on (b, z0, dz, grid size): the budget decides whether a
value is returned, never which.

Moments of |I(b, z)|^2 over z, the normaliser M_0 included, come from
Plancherel's theorem instead: integral (z - m)^k |I|^2 dz is 2 pi times an
integral over u of exp(-u^2) times a polynomial built from the raw
integrand's derivatives.  That weight does not oscillate, so one plain
trapezoid on a fixed node set gives every moment at any b.
:func:`verify_closed_form` compares the closed form with the numeric
density N sigma_phi |I(z)|^2 / M_0, and its ``points_used`` counts the
lattice's integrand evaluations.

The combinatorial 1/N! prefactor is dropped, matching the normalisation
convention of the closed forms.  The resolving step takes about |b| H^2
nodes per lattice (2e6 for fig2's 41-point density at |b| = 1.37e4), so
beyond a dispersion phase of ``PHASE_ENVELOPE_RAD`` = 2e4 rad amplitudes
and densities raise :class:`DomainError` rather than silently degrading
(the closed forms remain available at any scale).  The moments cost the
same at every b and have no such limit.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from ._record import record
from .constants import _check_finite
from .distributions import StateKind, StateSpec, _coherent_scale, density_at, quantum_distribution
from .errors import ConvergenceError, DomainError
from .media import PathPair
from .spectral import GaussianSpectrum

__all__ = [
    "VerificationReport",
    "amplitude_numeric",
    "verify_closed_form",
    "numeric_moments",
    "numeric_central_moment",
    "PHASE_ENVELOPE_RAD",
]

PHASE_ENVELOPE_RAD = 2.0e4
"""Largest dispersion phase |N * gdd_sum * sigma_phi^2| (rad) of an amplitude."""

_HALF_WIDTH = 10.0         # H, in units of sigma_phi: exp(-u^2/2) < 2e-22 beyond it
_REL_TOL = 1e-10           # target error relative to the amplitude scale
_MAX_POINTS = 6_000_000    # integrand evaluations, and FFT length, per lattice
_RESOLVE_SAFETY = 1.5      # least ratio of 2 pi / h to the largest local frequency
_ENVELOPE_MASS = math.sqrt(2.0 * math.pi)  # integral of exp(-u^2/2): the absolute mass
_MOMENT_STEP = 1.0 / 64    # trapezoid step in u of the Plancherel moments


@record
class VerificationReport:
    """Closed-form vs numeric densities on a grid of observable values."""

    grid: list[float]                    # fs
    closed_form: list[float]             # 1/fs
    numeric: list[float]                 # 1/fs
    max_rel_err: float
    points_used: int


def _fold(values: np.ndarray, first: int, size: int) -> np.ndarray:
    """Sums of ``values``, the terms of indices first, first + 1, ..., by index mod ``size``."""
    full = values.size - values.size % size
    sums = values[:full].reshape(-1, size).sum(axis=0)
    sums[:values.size - full] += values[full:]
    return np.roll(sums, first)


def _trapezoid_integral(b: float, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Trapezoid values of I(b, z) on the evenly spaced ``zs``: (values, errors, points).

    One nested lattice ladder serves the whole grid (see the module
    docstring): I(z0 + m dz) = h FFT_L(fold_L(g(u_k) exp(-i z0 u_k)))[m],
    with g the raw integrand.  Each level adds the odd nodes' fold to the
    odd residues.  Beyond ``PHASE_ENVELOPE_RAD`` it raises
    :class:`DomainError`, since the resolving step grows with |b|.
    """
    if abs(b) > PHASE_ENVELOPE_RAD:
        raise DomainError(
            f"dispersion phase |N * gdd_sum * sigma_phi^2| = {abs(b):.3e} rad exceeds "
            f"the validated quadrature envelope of {PHASE_ENVELOPE_RAD:.0e} rad; "
            "the closed forms and the numeric moments remain available at this scale"
        )
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    _check_finite(observable=zs)
    half, count, start = _HALF_WIDTH, zs.size, zs[0]
    size = 1 << (count - 1).bit_length()   # L at the first level: 1 for a single z
    coarsest = (half / 2.0 if count == 1
                else 2.0 * math.pi * (count - 1) / ((zs[-1] - start) * size))
    # First level with step <= 2 pi / (safety * (2|b|H + max|z|)).
    oversampling = (_RESOLVE_SAFETY * coarsest / (2.0 * math.pi)
                    * (2.0 * abs(b) * half + np.abs(zs).max()))
    resolved = max(1, math.ceil(math.log2(max(oversampling, 1.0))))

    def integrand(u):
        return np.exp(-0.5 * u * u + 1j * (b * u * u - start * u))

    errors = np.full(count, np.inf)
    achieved, points = math.inf, 0   # achieved: the smallest level-wide largest change
    for level in itertools.count():
        step = coarsest / 2**level
        reach = int(half / step)     # nodes k = -reach .. reach
        lattice = size << level
        if max(2 * reach + 1, lattice) > _MAX_POINTS:
            break
        points = 2 * reach + 1
        if level == 0:
            fold = _fold(integrand(step * np.arange(-reach, reach + 1)), -reach, lattice)
        else:
            # The odd nodes k = 2i + 1 fall on the residues 2 (i mod L/2) + 1.
            first = -((reach + 1) // 2)
            odd = _fold(integrand(step * (2.0 * np.arange(first, (reach - 1) // 2 + 1) + 1.0)),
                        first, lattice // 2)
            fold = np.stack((fold, odd), axis=1).ravel()
        current = step * np.fft.fft(fold)[:count]
        if level:
            errors = np.abs(current - values)
            achieved = min(achieved, float(errors.max()))
            # Tail-safe scale: when cancellation makes |I| tiny, hold the target
            # to a fixed fraction of the absolute mass instead.
            target = _REL_TOL * np.maximum(np.abs(current), 1e-3 * _ENVELOPE_MASS)
            if level >= resolved and (errors <= target).all():
                return current, errors, points
        values = current

    needed = 2 * int(half / (coarsest / 2**resolved)) + 1
    unresolved = (f"; resolving its phase takes {needed} points"
                  if needed > _MAX_POINTS else "")
    raise ConvergenceError(
        f"quadrature budget of {_MAX_POINTS} points exhausted at z = "
        f"{zs[np.argmax(errors)]:.6g} (error estimate {achieved:.3e}{unresolved})",
        achieved=achieved,
        points_used=points,
    )


def _plancherel_moments(b: float, order: int) -> tuple[float, np.ndarray]:
    """(<z>, central moments 0..order of |I(b, z)|^2 over z), by Plancherel.

    I(b, .) is the Fourier transform of g(u) = exp(-u^2/2 + i b u^2) on
    [-H, H], and (z - m) times it is the transform of (-i d/du - m) g.  So
    integral (z - m)^k |I|^2 dz = 2 pi integral exp(-u^2) P_k(u) du, with
    P_0 = 1 and P_{k+1} = -i P_k' + (i + 2b) u P_k - m P_k.  The weight
    exp(-u^2) = |g|^2 does not oscillate at any b, so a plain trapezoid on
    a fixed node set converges, and the cost does not grow with |b|.
    """
    reach = int(_HALF_WIDTH / _MOMENT_STEP)
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
) -> complex:
    """Detection amplitude at observable value ``tau`` (fs), by quadrature.

    For anti-correlated and coherent states ``tau`` is the difference of
    mean detection times; for correlated states it is their sum.  The
    1/N! prefactor is dropped; the coherent magnitude factor |v|^N |u|^N
    is included.
    """
    b, mean = _case_geometry(state, spectrum, paths)
    sigma_phi = spectrum.sigma_phi
    values, _, _ = _trapezoid_integral(b, np.array([state.n_photons * sigma_phi * (tau - mean)]))
    return _coherent_scale(state, state.n_photons) * (sigma_phi * complex(values[0]))


def verify_closed_form(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    grid,
) -> VerificationReport:
    """Compare the normalised numeric density against the closed form.

    The grid must be ascending and evenly spaced, as ``np.linspace``
    gives.  The numeric side is N sigma_phi |I(z)|^2 / M_0, with I(z) on
    the whole grid from one trapezoid lattice and the normaliser M_0 =
    integral |I|^2 dz taken by Plancherel; at no point does it use the
    completed-square result.  The maximum relative error is taken over
    grid points where the closed-form density exceeds 1e-8 of its peak
    (further out, the oscillatory integral cancels to below float64
    resolution and a relative comparison means nothing).
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise DomainError("verification grid must be non-empty")
    _check_finite(observable=grid)
    # Even to within a few ulps of its largest value, as np.linspace gives.
    steps = np.diff(grid)
    spacing = (grid[-1] - grid[0]) / max(grid.size - 1, 1)
    if not (np.all(steps > 0)
            and np.all(np.abs(steps - spacing) <= 8.0 * np.spacing(np.abs(grid).max()))):
        raise DomainError("verification grid must be ascending and evenly spaced")

    dist = quantum_distribution(state, spectrum, paths)
    closed = np.asarray(density_at(dist, grid))

    b, mean = _case_geometry(state, spectrum, paths)
    scale = state.n_photons * spectrum.sigma_phi
    values, _, points = _trapezoid_integral(b, scale * (grid - mean))
    _, moments = _plancherel_moments(b, 0)
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
) -> tuple[float, float]:
    """(mean, central moment of the given order) of the numeric density, in fs."""
    b, offset = _case_geometry(state, spectrum, paths)
    scale = state.n_photons * spectrum.sigma_phi
    centre, moments = _plancherel_moments(b, order)
    return offset + centre / scale, float(moments[order] / moments[0]) / scale**order


def numeric_moments(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
) -> tuple[float, float]:
    """Mean and width (fs) of the numeric density, by Plancherel moments.

    It is the oracle of :func:`~qtiming.distributions.classical_width` too: a
    one-photon state with one path's whole GDD in path 1 and an empty path 2
    gives that pulse's width (b = gdd sigma_phi^2), and the classical width is
    the root-sum-square of the two paths' pulse widths.
    """
    mean, variance = _central_moment(state, spectrum, paths, 2)
    return mean, math.sqrt(variance)


def numeric_central_moment(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    order: int,
) -> float:
    """Central moment of the numeric density of the given order."""
    if not isinstance(order, numbers.Integral) or order < 0:
        raise DomainError(f"order must be a non-negative integer, got {order!r}")
    return _central_moment(state, spectrum, paths, order)[1]

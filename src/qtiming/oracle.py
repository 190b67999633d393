"""Independent numerical evaluation of the raw amplitude integrals.

Every closed form in :mod:`qtiming.distributions` descends from one
oscillatory Gaussian integral.  In the standardised variable u =
detuning/sigma_phi it reads

    I(b, z) = integral over [-H, H] of exp(-u^2/2 + i(b u^2 - z u)) du

with b the dimensionless dispersion phase, z = N * sigma_phi * (tau -
mean) and the fixed window H = 10 (``_HALF_WIDTH``; the envelope beyond it
is below 2e-22).  Each case follows from the state's arm signs alone (see
:class:`~qtiming.distributions.StateKind`): arm k carries its N photons at
omega0 + s_k nu, with s_1 = +1 and s_2 = -1 for anti-correlated and
coherent states, +1 for correlated ones.  So the observable tau is
t1 + s_2 t2, its mean is sum_k s_k alpha_k x_k, and b = N sigma_phi^2
sum_k s_k^2 beta_k x_k; the oracle never takes the closed form's choice of
observable, mean or GDD.  This module sums the raw integrand *before* any
completing-the-square step, so it can confirm or refute the closed forms
independently.

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
trapezoid on a fixed node set gives every moment at any b.  Near b = 0
the polynomial's terms alternate in sign and cancel, so an even moment
whose rounding bound exceeds 1e-6 of its value is refused.
:func:`verify_closed_form` compares the closed form with the numeric
density N sigma_phi |I(z)|^2 / M_0 on the grid ``np.linspace(start, stop,
count)``, and its ``points_used`` counts the lattice's integrand
evaluations.  Each case's GDD sum and dispersion phase pass
``_finite_or_raise``, so per-path GDDs whose sum leaves float64 are named.

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
from .constants import _check_finite, _finite_or_raise
from .distributions import _ARM2_SIGN, StateSpec, density_at, quantum_distribution
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


def _plancherel_moments(b: float, order: int) -> tuple[float, np.ndarray, float]:
    """(<z>, central moments 0..order of |I(b, z)|^2 over z, spread), by Plancherel.

    I(b, .) is the Fourier transform of g(u) = exp(-u^2/2 + i b u^2) on
    [-H, H], and (z - m) times it is the transform of (-i d/du - m) g.  So
    integral (z - m)^k |I|^2 dz = 2 pi integral exp(-u^2) P_k(u) du, with
    P_0 = 1 and P_{k+1} = -i P_k' + (i + 2b) u P_k - m P_k.  The weight
    exp(-u^2) = |g|^2 does not oscillate at any b, so a plain trapezoid on
    a fixed node set converges, and the cost does not grow with |b|.

    The order-k moment sums the weights of every power up to k, so once one
    of them leaves float64 (from order 352 on, at any b) so does the
    moment: that raises :class:`DomainError` before any recurrence step.
    The spread is the top moment's sum of |c_j w_j| (see
    :func:`_plancherel_central`).
    """
    reach = int(_HALF_WIDTH / _MOMENT_STEP)
    u = _MOMENT_STEP * np.arange(-reach, reach + 1)
    term = np.exp(-u * u)
    term[[0, -1]] *= 0.5
    # 2 pi times the trapezoid value of integral exp(-u^2) u^j du, j = 0..order.
    scale = 2.0 * math.pi * _MOMENT_STEP
    powers, law = [], f"numeric central moment of order {order}"
    for _ in range(max(order, 1) + 1):
        powers.append(_finite_or_raise(scale * term.sum(), law, None, positive=False))
        term *= u
    powers = np.array(powers)
    first, _ = _plancherel_central(powers, b, 0.0, 1)
    mean = float(first[1] / first[0])
    return (mean, *_plancherel_central(powers, b, mean, order))


def _plancherel_central(
    powers: np.ndarray, b: float, mean: float, top: int
) -> tuple[np.ndarray, float]:
    """Moments 0..top of (z - mean)^k, from the weights ``powers`` (see above) by P_k's recurrence.

    Also the sum of |c_j w_j| over the terms c_j w_j of the top moment,
    with c_j the coefficients of P_top and w_j the weights: 2^-53 times it
    bounds the rounding error of their sum, which cancels at small |b|.
    """
    poly = np.zeros(top + 1, dtype=complex)  # P_k's coefficients, lowest power first
    poly[0] = 1.0
    moments = [powers[0]]
    for _ in range(top):
        derivative = np.append(poly[1:] * np.arange(1, top + 1), 0.0)
        poly = -1j * derivative + (1j + 2.0 * b) * np.append(0.0, poly[:-1]) - mean * poly
        moments.append((poly * powers[:top + 1]).sum().real)
    return np.array(moments), float(np.abs(poly * powers[:top + 1]).sum())


def _case_geometry(
    state: StateSpec, spectrum: GaussianSpectrum, paths: PathPair
) -> tuple[float, float, float]:
    """(b, mean, scale) of one case, computed once and shared by every tau.

    Derived from the state's arm signs alone: arm k carries its N photons
    at omega0 + s_k nu, with s_1 = +1 and s_2 the state's sign, so the
    phase N sum_k k_k(omega0 + s_k nu) x_k, expanded to second order in
    nu, has the linear coefficient N (delay1 + s delay2) and the quadratic
    one N (gdd1 + s^2 gdd2) / 2.  Hence b = N (gdd1 + s^2 gdd2) sigma_phi^2,
    the mean of the observable t1 + s t2 is delay1 + s delay2, and an
    observable value tau sits at z = scale (tau - mean), scale = N sigma_phi.
    """
    delay1, gdd1, delay2, gdd2 = paths.coefficients()
    sign = _ARM2_SIGN[state.kind]
    gdd = _finite_or_raise(gdd1 + sign * sign * gdd2, "GDD sum", None, positive=False,
                           gdd_path1_fs2=gdd1, gdd_path2_fs2=gdd2)
    b = _finite_or_raise(state.n_photons * gdd * spectrum.sigma_phi**2, "dispersion phase",
                         spectrum.sigma_phi, positive=False, N=state.n_photons, gdd_sum_fs2=gdd)
    return b, delay1 + sign * delay2, state.n_photons * spectrum.sigma_phi


def amplitude_numeric(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    tau: float,
) -> complex:
    """Detection amplitude at observable value ``tau`` (fs), by quadrature.

    ``tau`` is a value of the observable t1 + s t2 of the state's arm sign
    s: the difference of the mean detection times for anti-correlated and
    coherent states (s = -1), their sum for correlated ones (s = +1).  The
    integral's dispersion phase is b = N (gdd1 + s^2 gdd2) sigma_phi^2.  As
    in the closed forms, the 1/N! prefactor and the coherent states'
    photon-number weight are dropped.
    """
    b, mean, scale = _case_geometry(state, spectrum, paths)
    values, _, _ = _trapezoid_integral(b, np.array([scale * (tau - mean)]))
    return spectrum.sigma_phi * complex(values[0])


def verify_closed_form(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    start: float,
    stop: float,
    count: int,
) -> VerificationReport:
    """Compare the normalised numeric density against the closed form.

    The grid is ``np.linspace(start, stop, count)`` of observable values
    (fs), with finite ends, an integer 1 <= count <= ``_MAX_POINTS`` (a
    larger lattice cannot converge) and start < stop when count > 1.  The numeric side is
    N sigma_phi |I(z)|^2 / M_0, with I(z) on
    the whole grid from one trapezoid lattice and the normaliser M_0 =
    integral |I|^2 dz taken by Plancherel; at no point does it use the
    completed-square result.  The maximum relative error is taken over
    grid points where the closed-form density exceeds 1e-8 of its peak
    (further out, the oscillatory integral cancels to below float64
    resolution and a relative comparison means nothing).
    """
    _check_finite(start=start, stop=stop)
    if not (isinstance(count, numbers.Integral) and 1 <= count <= _MAX_POINTS):
        raise DomainError(f"grid count must be an integer in 1..{_MAX_POINTS}, got {count!r}")
    if count > 1 and not start < stop:
        raise DomainError(f"grid needs start < stop, got {start:g} and {stop:g}")
    grid = np.linspace(start, stop, count)

    dist = quantum_distribution(state, spectrum, paths)
    closed = np.asarray(density_at(dist, grid))

    b, mean, scale = _case_geometry(state, spectrum, paths)
    values, _, points = _trapezoid_integral(b, scale * (grid - mean))
    _, moments, _ = _plancherel_moments(b, 0)
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
) -> tuple[float, np.float64, float, np.float64]:
    """(mean in fs, central moment of the given order in z, scale, cancellation).

    z = scale (tau - mean).  The moment stays in z, where the callers take
    it to fs each in its own way, and passes no check here: a value that
    left float64 is theirs to name.  The cancellation is the relative
    rounding bound 2^-53 sum_j |c_j w_j| / |M_order| (see
    :func:`_plancherel_central`).
    """
    b, offset, scale = _case_geometry(state, spectrum, paths)
    with np.errstate(all="ignore"):
        centre, moments, spread = _plancherel_moments(b, order)
        return (offset + centre / scale, moments[order] / moments[0], scale,
                2.0**-53 * spread / np.abs(moments[order]))


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
    mean, variance, scale, _ = _central_moment(state, spectrum, paths, 2)
    # The root before the division by the scale: the width can fit in float64
    # where the variance in fs^2 does not.
    return (_finite_or_raise(mean, "numeric mean", None, positive=False),
            _finite_or_raise(math.sqrt(variance) / scale, "numeric width", None))


def numeric_central_moment(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    order: int,
) -> float:
    """Central moment of the numeric density of the given order, a non-negative int (not a bool).

    An even moment sums terms of alternating sign that cancel at small |b|
    (at b = 0, its rounding bound passes 1e-6 between orders 40 and 50); one
    whose bound exceeds 1e-6 raises :class:`DomainError` rather than return
    a value without its digits.
    """
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 0:
        raise DomainError(f"order must be a non-negative integer, got {order!r}")
    _, moment, scale, cancellation = _central_moment(state, spectrum, paths, order)
    # moment / scale**order, with scale = mantissa 2**exponent: the power of
    # the mantissa in [1/2, 1) stays normal at any order whose moment is finite.
    mantissa, exponent = math.frexp(scale)
    with np.errstate(all="ignore"):
        moment = float(np.ldexp(moment / mantissa**order, -exponent * order))
    law = f"numeric central moment of order {order}"
    if order % 2 == 0 and math.isfinite(moment) and cancellation > 1e-6:
        raise DomainError(f"{law} lost its digits to cancellation")
    return _finite_or_raise(moment, law, None, positive=order % 2 == 0)

"""Independent numerical evaluation of the raw amplitude integrals.

Every closed form in :mod:`qtiming.distributions` descends from one
oscillatory Gaussian integral.  In the standardised variable u =
detuning/sigma_phi it reads

    I(b, z) = integral over [-H, H] of exp(-u^2/2 + i(b u^2 - z u)) du

with b = N * gdd_sum * sigma_phi^2 (dimensionless dispersion phase) and
z = N * sigma_phi * (tau - mean offset).  This module evaluates I by
adaptive Gauss-Kronrod (G7/K15) panels *before* any completing-the-square
step, so it can confirm or refute the closed forms independently.

Panel strategy: the integrand is a unit Gaussian times a phase that
advances by |2bu - z| per unit u.  The interval is pre-split so no panel
sees more than ~pi/2 of phase advance, then panels whose embedded-Gauss
error estimate exceeds their share of the tolerance are bisected, worst
first, until the total estimate meets the target or the evaluation budget
runs out (raising :class:`ConvergenceError` with the achieved estimate).

Verification compares a self-normalised numeric density with the closed
form.  That density depends only on the photon number, the spectral width
and the case geometry (gdd_sum, b, mean offset), not on the state family,
so :func:`verify_closed_form` computes it once per geometry, grid and
quadrature spec and shares it through a small cache.  A report's
``points_used`` is the integrand evaluations its density needs, whether or
not they were spent on this call.  :func:`amplitude_numeric` and the moment
helpers do not use the cache.

The combinatorial 1/N! prefactor is dropped, matching the normalisation
convention of the closed forms.  Beyond a dispersion phase |b| of ~1e3 rad
the cost of resolving the oscillation explodes; such calls raise
:class:`DomainError` rather than silently degrading (the closed forms
remain available at any scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
"""Largest supported dispersion phase |N * gdd_sum * sigma_phi^2|, rad."""

_PHASE_PER_PANEL = math.pi / 2.0
_MIN_PANELS = 8
_NORM_NODES = 200          # Gauss-Legendre nodes for densities' normalisation
_WINDOW_SIGMAS = 12.0      # half-width of the normalisation window, in width bounds

# G7/K15 abscissae and weights (ascending order; Gauss nodes at odd indices).
_XK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_IDX = np.arange(1, 15, 2)


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the adaptive quadrature.

    half_width : integration window in units of sigma_phi (>= 6; the
                 envelope beyond 6 sigma contributes < 2e-8 of the mass)
    max_points : budget of integrand evaluations per amplitude
    rel_tol    : target error relative to the amplitude scale (>= 1e-12)
    """

    half_width: float = 10.0
    max_points: int = 6_000_000
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.half_width >= 6:
            raise DomainError(f"half_width must be >= 6, got {self.half_width}")
        if not self.rel_tol >= 1e-12:
            raise DomainError(f"rel_tol must be >= 1e-12, got {self.rel_tol}")
        if self.max_points < 15:
            raise DomainError("max_points must allow at least one 15-point panel")


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


def _phase_variation(b: float, z: float, half_width: float) -> float:
    # Total variation of the phase b u^2 - z u over [-H, H].
    if b == 0.0:
        return 2.0 * half_width * abs(z)
    turning = z / (2.0 * b)
    if abs(turning) <= half_width:
        return 2.0 * abs(b) * (half_width**2 + turning**2)
    return 2.0 * half_width * abs(z)


def _panel_eval(lo: np.ndarray, hi: np.ndarray, b: float, z: float, phase_offset: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    u = mid[:, None] + half[:, None] * _XK[None, :]
    f = np.exp(-0.5 * u * u + 1j * (b * u * u - z * u + phase_offset))
    kronrod = (f @ _WK) * half
    gauss = (f[:, _GAUSS_IDX] @ _WG) * half
    mass = (np.abs(f) @ _WK) * half
    return kronrod, np.abs(kronrod - gauss), mass


def _oscillatory_gaussian_integral(
    b: float, z: float, quad: QuadratureSpec, phase_offset: float = 0.0
) -> tuple[complex, float, int]:
    """Adaptive G7/K15 evaluation of I(b, z); returns (value, err, points)."""
    h = quad.half_width
    n0 = int(min(
        max(_MIN_PANELS, math.ceil(_phase_variation(b, z, h) / _PHASE_PER_PANEL)),
        max(quad.max_points // 15, 1),
    ))
    edges = np.linspace(-h, h, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    kronrod, err, mass = _panel_eval(lo, hi, b, z, phase_offset)
    points = 15 * n0

    for _ in range(64):
        total = complex(np.sum(kronrod))
        total_err = float(np.sum(err))
        # Tail-safe scale: when cancellation makes |I| tiny, hold the target
        # to a fixed fraction of the absolute mass instead.
        scale = max(abs(total), 1e-3 * float(np.sum(mass)))
        target = quad.rel_tol * scale
        if total_err <= target:
            return total, total_err, points

        order = np.argsort(err, kind="stable")[::-1]
        bad = order[err[order] > target / (2 * len(err))]
        if bad.size == 0:
            bad = order[:1]
        affordable = max((quad.max_points - points) // 30, 0)
        if affordable == 0:
            raise ConvergenceError(
                f"quadrature budget of {quad.max_points} points exhausted "
                f"(error estimate {total_err:.3e}, target {target:.3e})",
                achieved=total_err,
                points_used=points,
            )
        bad = bad[:affordable]

        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([np.delete(lo, bad), lo[bad], mid])
        new_hi = np.concatenate([np.delete(hi, bad), mid, hi[bad]])
        child_k, child_e, child_m = _panel_eval(
            np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]]), b, z, phase_offset
        )
        kronrod = np.concatenate([np.delete(kronrod, bad), child_k])
        err = np.concatenate([np.delete(err, bad), child_e])
        mass = np.concatenate([np.delete(mass, bad), child_m])
        lo, hi = new_lo, new_hi
        points += 30 * bad.size
        # Keep the summation order independent of split history.
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        kronrod, err, mass = kronrod[order], err[order], mass[order]

    raise ConvergenceError(
        "quadrature did not converge within the iteration limit",
        achieved=float(np.sum(err)),
        points_used=points,
    )


def _case_geometry(
    state: StateSpec, spectrum: GaussianSpectrum, paths: PathPair
) -> tuple[float, float, float]:
    """(gdd_sum, b, mean) of one case, computed once and shared by every tau.

    ``mean`` is the oracle's own choice of the linear offset (delay sum for
    correlated states, difference otherwise), not the closed form's.
    """
    delay1, gdd1, delay2, gdd2 = paths.coefficients()
    gdd_sum = gdd1 + gdd2
    b = state.n_photons * gdd_sum * spectrum.sigma_phi**2
    if abs(b) > PHASE_ENVELOPE_RAD:
        raise DomainError(
            f"dispersion phase |N * gdd_sum * sigma_phi^2| = {abs(b):.3e} rad exceeds "
            f"the validated quadrature envelope of {PHASE_ENVELOPE_RAD:.0e} rad; "
            "the closed forms remain available at this scale"
        )
    mean = delay1 + delay2 if state.kind is StateKind.CORRELATED_FOCK else delay1 - delay2
    return gdd_sum, b, mean


def _amplitude_raw(
    n_photons: float,
    sigma_phi: float,
    geometry: tuple[float, float, float],
    tau: float,
    quad: QuadratureSpec,
) -> tuple[complex, int]:
    """Amplitude without the coherent magnitude factor, plus points used."""
    _, b, mean = geometry
    z = n_photons * sigma_phi * (tau - mean)
    value, _, points = _oscillatory_gaussian_integral(b, z, quad)
    return sigma_phi * value, points


def _intensity(
    n_photons: float,
    sigma_phi: float,
    geometry: tuple[float, float, float],
    taus: np.ndarray,
    quad: QuadratureSpec,
) -> tuple[np.ndarray, int]:
    """|A|^2 (coherent factor dropped) at each of ``taus``, plus points used."""
    values = np.empty_like(taus)
    points = 0
    for i, tau in enumerate(taus):
        amp, used = _amplitude_raw(n_photons, sigma_phi, geometry, float(tau), quad)
        values[i] = abs(amp) ** 2
        points += used
    return values, points


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
    geometry = _case_geometry(state, spectrum, paths)
    value, _ = _amplitude_raw(state.n_photons, spectrum.sigma_phi, geometry, tau,
                              quad or QuadratureSpec())
    return _coherent_scale(state, state.n_photons) * value


def _width_bound(s: float, n_photons: float, gdd_sum: float) -> float:
    # (1 + 2 s^2 N |D|) / (sqrt(2) s N) >= true width, since sqrt(1+a^2) <= 1+a.
    return (1.0 + 2.0 * s**2 * n_photons * abs(gdd_sum)) / (math.sqrt(2.0) * s * n_photons)


@lru_cache(maxsize=4)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _density_on_nodes(
    n_photons: float,
    sigma_phi: float,
    geometry: tuple[float, float, float],
    quad: QuadratureSpec,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Numeric |A|^2 on Gauss-Legendre nodes spanning the distribution.

    Returns (nodes, weights, |A|^2 values, points_used).  The window is
    centred on the exactly-known linear mean with half-width
    ``_WINDOW_SIGMAS`` conservative width bounds, so it always covers the
    true density regardless of what the closed form claims.
    """
    gdd_sum, _, mean = geometry
    half_width = _WINDOW_SIGMAS * _width_bound(sigma_phi, n_photons, gdd_sum)
    x, w = _leggauss(_NORM_NODES)
    nodes = mean + half_width * x
    values, points = _intensity(n_photons, sigma_phi, geometry, nodes, quad)
    return nodes, half_width * w, values, points


@lru_cache(maxsize=32)
def _numeric_density(
    n_photons: float,
    sigma_phi: float,
    geometry: tuple[float, float, float],
    grid_bytes: bytes,
    quad: QuadratureSpec,
) -> tuple[np.ndarray, int]:
    """Self-normalised numeric density on the grid, plus the points it took.

    Keyed on exactly the inputs the numbers depend on, so state families
    with equal geometry share one evaluation.  The returned array is
    read-only, because every caller with the same key receives it.
    """
    grid = np.frombuffer(grid_bytes, dtype=np.float64)
    _, weights, node_values, node_points = _density_on_nodes(
        n_photons, sigma_phi, geometry, quad)
    values, points = _intensity(n_photons, sigma_phi, geometry, grid, quad)
    numeric = values / float(weights @ node_values)
    numeric.flags.writeable = False
    return numeric, node_points + points


def verify_closed_form(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    grid,
    quad: QuadratureSpec | None = None,
) -> VerificationReport:
    """Compare the normalised numeric density against the closed form.

    The numeric side integrates |A|^2 by quadrature and normalises it with
    its own numerically-computed integral; at no point does it use the
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

    geometry = _case_geometry(state, spectrum, paths)
    numeric, points = _numeric_density(
        state.n_photons, spectrum.sigma_phi, geometry, grid.tobytes(), quad)

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
    """(mean, central moment of the given order) of the numeric density."""
    geometry = _case_geometry(state, spectrum, paths)
    nodes, weights, values, _ = _density_on_nodes(
        state.n_photons, spectrum.sigma_phi, geometry, quad or QuadratureSpec())
    mass = float(weights @ values)
    mean = float(weights @ (nodes * values)) / mass
    return mean, float(weights @ ((nodes - mean) ** order * values)) / mass


def numeric_moments(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    quad: QuadratureSpec | None = None,
) -> tuple[float, float]:
    """Mean and width (fs) of the numeric density, by moment quadrature."""
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
    return _central_moment(state, spectrum, paths, order, quad)[1]

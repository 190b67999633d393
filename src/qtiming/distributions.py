"""Closed-form Gaussian timing laws for entangled multi-photon states.

All state families considered here (frequency anti-correlated and
correlated Fock states, and frequency-entangled coherent states with equal
detected photon number per arm) lead to a Gaussian law for one collective
arrival-time observable.  Writing ``g`` for the single-packet intensity
width 1/(sqrt(2) sigma_phi) and ``D`` for the signed sum of
group-delay-dispersion products of the two paths (beta1*x1 + beta2*x2,
fs^2), the width of the collective observable for photon number N is

    sigma = sqrt(1 + (2 sigma_phi^2 N D)^2) * g / N.

When the two paths are arranged so that D = 0 the width collapses to g/N —
an N-fold narrowing over a single packet and a sqrt(N) advantage over the
classical shot-noise floor g/sqrt(N).  Uncompensated dispersion caps the
improvement: for large N the width saturates at sqrt(2) sigma_phi |D|,
independent of N, and the crossover sits at N_t = 1/(2 sigma_phi^2 |D|).

Densities are normalised to unit integral; the combinatorial and
bandwidth prefactors of the raw detection probability are dropped (they
overflow beyond N ~ 85 and carry no timing information).  The only
surviving amplitude factor is the coherent-state photon-number weight,
reported separately as ``amplitude_scale``.

The width laws take scalars or arrays.  When every input is a Python int or
float (``np.float64`` is a float), they compute with :mod:`math` and plain
float arithmetic and never import numpy; otherwise with numpy, on float64
arrays.  Both routes apply only correctly rounded operations to the inputs
(+, -, *, / and sqrt), and square an input as ``x * x``: never ``x ** 2``,
which is libm's ``pow`` (not guaranteed correctly rounded) and raises
OverflowError for a Python float.  So a scalar gives the same bits as a
one-element array, and the same :class:`DomainError` text.  :func:`density_at`
uses numpy even for a scalar, because ``np.exp`` and libm's ``exp`` may
differ in the last bit.

Every law applies one rule per quantity, and the rules live in
:mod:`qtiming.constants`, where the media laws read them too.  A bandwidth
sigma_phi passes ``_check_bandwidth``, so sigma_phi**2 and the squared
curvature 1/(2 sigma_phi^2) keep ``**`` (and its bits) and cannot overflow.
A photon number N is a real in (0, :data:`MAX_PHOTON_NUMBER`] (the width at
N_t < 1 exists), a pulse width sigma_t is finite and positive, and a GDD is
finite (``_check_finite``).  Within that domain each width law has one
evaluation path, its plain form.  A quantity that leaves float64 raises
(``_finite_or_raise``) and is named: the quantum dispersion phase's square
(|2 sigma_phi^2 N D| above about 2^512), the classical variance (or its
numerator), or a result that overflows, or is 0 where the law's exact value
is positive.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from enum import Enum

from ._record import record
from .constants import _check_bandwidth, _check_finite, _finite_or_raise
from .errors import DomainError
from .media import PathPair
from .spectral import GaussianSpectrum

__all__ = [
    "StateKind",
    "StateSpec",
    "TimingVariable",
    "TimingDistribution",
    "quantum_width",
    "asymptotic_width",
    "transition_photon_number",
    "classical_width",
    "classical_shot_noise",
    "quantum_distribution",
    "gated_detector_distribution",
    "quantum_classical_ratio",
    "density_at",
]

MAX_PHOTON_NUMBER = 1e12
"""The largest photon number N that the width laws, StateSpec and the CLI accept.
Widths are smooth in N, so the laws take any real N in (0, MAX_PHOTON_NUMBER].
Modules that instantiate per-photon computation (sampling, quadrature)
impose their own, much smaller caps."""


class StateKind(Enum):
    ANTI_CORRELATED_FOCK = "anti"
    CORRELATED_FOCK = "corr"
    ENTANGLED_COHERENT = "coherent"


class TimingVariable(Enum):
    """Which collective observable the Gaussian law governs."""

    MEAN_TIME_DIFFERENCE = "difference"   # mean arrival time, detector 1 minus 2
    MEAN_TIME_SUM = "sum"                 # sum of the two mean arrival times
    GATED_POSITION_TIME_DIFFERENCE = "gated-difference"  # fixed gate times, positions resolved


@record
class StateSpec:
    """Which entangled state to analyse.

    n_photons : photons detected per arm (>= 1); for the coherent family
                this is the number of detections, not the mean occupation.
    v_mag, u_mag : coherent amplitude magnitudes of the two arms; required
                for ENTANGLED_COHERENT and disallowed otherwise.
    """

    kind: StateKind
    n_photons: float
    v_mag: float | None = None
    u_mag: float | None = None

    def __post_init__(self):
        if not self.n_photons >= 1:
            raise DomainError(f"n_photons must be >= 1, got {self.n_photons}")
        if self.n_photons > MAX_PHOTON_NUMBER:
            raise DomainError(f"n_photons above supported bound {MAX_PHOTON_NUMBER:g}")
        coherent = self.kind is StateKind.ENTANGLED_COHERENT
        has_mags = self.v_mag is not None and self.u_mag is not None
        if coherent and not has_mags:
            raise DomainError(f"state {self.kind.value!r} needs both coherent amplitudes, v and u")
        if not coherent and (self.v_mag is not None or self.u_mag is not None):
            raise DomainError(f"state {self.kind.value!r} takes no coherent amplitudes v and u")
        if coherent and not (0 <= self.v_mag < math.inf and 0 <= self.u_mag < math.inf):
            raise DomainError("coherent amplitude magnitudes must be finite and >= 0")


@record
class TimingDistribution:
    """A Gaussian law for one collective timing observable.

    mean, sigma in fs.  ``amplitude_scale`` multiplies the raw detection
    probability but not the normalised density.
    """

    variable: TimingVariable
    mean: float
    sigma: float
    amplitude_scale: float = 1.0

    def __post_init__(self):
        _check_finite(mean=self.mean)
        _check_finite(positive=True, sigma=self.sigma)


@contextmanager
def _namespace(*inputs):
    """Yield ``(xp, *inputs)``: the module a closed form computes with, and its inputs.

    ``math`` and the inputs as Python floats when every input is an int or a
    float; otherwise numpy and the inputs as float64 arrays, with overflow
    and invalid operations giving inf and NaN silently, as Python floats do.
    """
    if all(isinstance(value, (int, float)) for value in inputs):
        yield (math, *map(float, inputs))
        return
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        yield (np, *(np.asarray(value, dtype=float) for value in inputs))


def _check_photon_number(n) -> None:
    """DomainError, naming an array's first bad element, unless 0 < N <= MAX_PHOTON_NUMBER."""
    _check_finite(positive=True, N=n)
    above = n > MAX_PHOTON_NUMBER
    if above if isinstance(n, float) else above.any():
        first = n if isinstance(n, float) else n[above][0]
        raise DomainError(f"N = {first:g} is above the supported bound {MAX_PHOTON_NUMBER:g}")


def quantum_width(sigma_phi: float, n_photons, gdd_sum):
    """Width (fs) of the collective observable for photon number N.

    sigma_phi : spectral width, rad/fs
    gdd_sum   : beta1*x1 + beta2*x2 over the two paths, fs^2

    ``n_photons`` and ``gdd_sum`` may be arrays (broadcast together).
    Satisfies sigma^2 * 2 sigma_phi^2 N^2 = 1 + 4 sigma_phi^4 N^2 gdd_sum^2
    to machine precision, and reduces bit-exactly to intensity_width()/N
    when gdd_sum is zero.
    """
    _check_bandwidth(sigma_phi)
    packet_width = 1.0 / (math.sqrt(2.0) * sigma_phi)
    with _namespace(n_photons, gdd_sum) as (xp, n, gdd):
        _check_photon_number(n)
        _check_finite(gdd_sum_fs2=gdd)
        phase = 2.0 * float(sigma_phi)**2 * n * gdd
        phase_squared = _finite_or_raise(phase * phase, "quantum dispersion phase squared",
                                         sigma_phi, positive=False, N=n, gdd_sum_fs2=gdd)
        width = xp.sqrt(1.0 + phase_squared) * (packet_width / n)
    return _finite_or_raise(width, "quantum width", sigma_phi, N=n, gdd_sum_fs2=gdd)


def asymptotic_width(sigma_phi: float, gdd_sum: float) -> float:
    """Large-N limit of :func:`quantum_width`: sqrt(2) sigma_phi |gdd_sum|, fs."""
    _check_bandwidth(sigma_phi)
    _check_finite(gdd_sum_fs2=gdd_sum)
    width = math.sqrt(2.0) * float(sigma_phi) * abs(float(gdd_sum))  # an np.float64 would warn
    return _finite_or_raise(width, "asymptotic width", sigma_phi, positive=gdd_sum != 0,
                            gdd_sum_fs2=gdd_sum)


def transition_photon_number(sigma_phi: float, gdd_sum: float) -> float:
    """Photon number where dispersion broadening equals the bandwidth term.

    N_t = 1/(2 sigma_phi^2 |gdd_sum|); at N_t the width is exactly sqrt(2)
    times the asymptote, and raising N further has diminishing returns.
    Returned as a real; callers may round.  Scalars only.
    """
    _check_bandwidth(sigma_phi)
    _check_finite(gdd_sum_fs2=gdd_sum)
    if gdd_sum == 0:
        raise DomainError("no transition: dispersion fully cancelled (gdd_sum = 0)")
    denominator = 2.0 * float(sigma_phi)**2 * abs(float(gdd_sum))
    # A denominator that underflows to zero puts N_t beyond float64.
    n_t = 1.0 / denominator if denominator else math.inf
    return _finite_or_raise(n_t, "transition photon number", sigma_phi, gdd_sum_fs2=gdd_sum)


def classical_width(sigma_phi: float, gdd_path1, gdd_path2):
    """Width (fs) of the arrival-time difference of two classical pulses.

    gdd_path1, gdd_path2 : beta*x of each path separately, fs^2, scalars or
    arrays.  They enter as a sum of squares, so no sign arrangement can
    cancel the broadening classically.
    """
    _check_bandwidth(sigma_phi)
    curvature = 1.0 / (2.0 * float(sigma_phi)**2)  # Gaussian exponent coefficient, fs^2
    with _namespace(gdd_path1, gdd_path2) as (xp, gdd1, gdd2):
        _check_finite(gdd_path1_fs2=gdd1, gdd_path2_fs2=gdd2)
        # The width is inf exactly where the variance, or its numerator, leaves float64.
        width = xp.sqrt((2.0 * curvature**2 + (gdd1 * gdd1 + gdd2 * gdd2)) / curvature)
    return _finite_or_raise(width, "classical variance", sigma_phi,
                            gdd_path1_fs2=gdd1, gdd_path2_fs2=gdd2)


def classical_shot_noise(sigma_t, n_photons):
    """Classical timing uncertainty after averaging N pulse pairs: sigma_t/sqrt(N)."""
    with _namespace(sigma_t, n_photons) as (xp, sigma, n):
        _check_finite(positive=True, sigma_t_fs=sigma)
        _check_photon_number(n)
        noise = sigma / xp.sqrt(n)
    return _finite_or_raise(noise, "classical shot noise", None, sigma_t_fs=sigma, N=n)


def _coherent_scale(state: StateSpec, power: float) -> float:
    """|v|^power |u|^power (power 2N for probabilities, N for amplitudes); 1 for Fock states.

    The direct product ``v**power * u**power`` whenever both factors are
    normal float64 numbers, so tests can match it exactly; log space when a
    factor alone overflows or falls below ``sys.float_info.min``, where the
    product may still fit (1e-3^150 * 10^150).  Raises :class:`DomainError`
    when the product itself does not fit in float64.
    """
    if state.kind is not StateKind.ENTANGLED_COHERENT:
        return 1.0
    v, u = state.v_mag, state.u_mag
    if v == 0.0 or u == 0.0:
        return 0.0
    try:
        v_factor, u_factor = v**power, u**power
        direct = min(v_factor, u_factor) >= sys.float_info.min
    except OverflowError:
        direct = False
    if direct:
        scale = v_factor * u_factor
    else:
        try:
            scale = math.exp(power * (math.log(v) + math.log(u)))
        except OverflowError:
            scale = math.inf
    if not math.isfinite(scale):
        raise DomainError("coherent amplitude scale overflows float64 at this photon number")
    return scale


def quantum_distribution(
    state: StateSpec, spectrum: GaussianSpectrum, paths: PathPair
) -> TimingDistribution:
    """Gaussian law of the collective observable for a state and media pair.

    Anti-correlated and coherent states localise the *difference* of the
    two mean detection times, with mean delay1 - delay2; correlated states
    localise the *sum*, with mean delay1 + delay2.  The width is the same
    for all three families.  Means follow the path1-minus-path2 convention
    for difference variables.
    """
    delay1, gdd1, delay2, gdd2 = paths.coefficients()
    sigma = quantum_width(spectrum.sigma_phi, state.n_photons, gdd1 + gdd2)

    if state.kind is StateKind.CORRELATED_FOCK:
        variable, mean = TimingVariable.MEAN_TIME_SUM, delay1 + delay2
    else:
        variable, mean = TimingVariable.MEAN_TIME_DIFFERENCE, delay1 - delay2
    return TimingDistribution(variable=variable, mean=mean, sigma=sigma,
                              amplitude_scale=_coherent_scale(state, 2.0 * state.n_photons))


def gated_detector_distribution(
    state: StateSpec,
    spectrum: GaussianSpectrum,
    paths: PathPair,
    mean_position1_cm: float,
    mean_position2_cm: float,
) -> TimingDistribution:
    """Gaussian law for thick, position-resolving detectors gated in time.

    With both detectors gated on at fixed times for an interval much
    shorter than 1/(N omega0) (a documented assumption, not checked
    numerically), the detected mean *positions* take over the role of the
    path lengths: each path must consist of a single homogeneous medium,
    whose per-cm coefficients are evaluated at the mean detection positions
    ``mean_position1_cm`` / ``mean_position2_cm`` instead of the segment
    lengths.  The width formula is unchanged.
    """
    if len(paths.path1) != 1 or len(paths.path2) != 1:
        raise DomainError(
            "gated-detector analysis needs one homogeneous medium per path "
            f"(got {len(paths.path1)} and {len(paths.path2)} segments)"
        )
    if not (0 <= mean_position1_cm < math.inf and 0 <= mean_position2_cm < math.inf):
        raise DomainError("mean detection positions must be finite and >= 0")
    medium1 = paths.path1[0]
    medium2 = paths.path2[0]
    gdd_sum = medium1.beta * mean_position1_cm + medium2.beta * mean_position2_cm
    sigma = quantum_width(spectrum.sigma_phi, state.n_photons, gdd_sum)
    mean = medium1.alpha * mean_position1_cm - medium2.alpha * mean_position2_cm
    return TimingDistribution(
        variable=TimingVariable.GATED_POSITION_TIME_DIFFERENCE,
        mean=mean,
        sigma=sigma,
        amplitude_scale=_coherent_scale(state, 2.0 * state.n_photons),
    )


def quantum_classical_ratio(
    state: StateSpec, spectrum: GaussianSpectrum, paths: PathPair
) -> float:
    """Quantum width over classical shot-noise width, same N and media.

    Below 1 the entangled state beats classical averaging; above 1
    uncompensated dispersion has made it worse.
    """
    _, gdd1, _, gdd2 = paths.coefficients()
    return width_ratio(spectrum.sigma_phi, state.n_photons, gdd1, gdd2)


def width_ratio(sigma_phi: float, n_photons, gdd_path1, gdd_path2):
    """:func:`quantum_classical_ratio` from the spectral width (rad/fs) and per-path GDDs (fs^2).

    ``n_photons``, ``gdd_path1`` and ``gdd_path2`` may be arrays (broadcast
    together), as ``surface`` passes them.
    """
    with _namespace(gdd_path1, gdd_path2) as (_, gdd1, gdd2):
        sigma_q = quantum_width(sigma_phi, n_photons, gdd1 + gdd2)
        sigma_c = classical_shot_noise(classical_width(sigma_phi, gdd1, gdd2), n_photons)
        return _finite_or_raise(sigma_q / sigma_c, "width ratio", sigma_phi, N=n_photons,
                                gdd_path1_fs2=gdd1, gdd_path2_fs2=gdd2)


def density_at(dist: TimingDistribution, tau):
    """Normalised Gaussian probability density (1/fs) at ``tau`` (fs).

    Integrates to one regardless of ``amplitude_scale``.  Accepts scalars
    or arrays.
    """
    import numpy as np  # np.exp for scalars too: libm's exp may differ in the last bit

    z = (np.asarray(tau, dtype=float) - dist.mean) / dist.sigma
    density = np.exp(-0.5 * z * z) / (dist.sigma * math.sqrt(2.0 * math.pi))
    return density if density.ndim else float(density)

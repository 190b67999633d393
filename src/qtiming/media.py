"""Dispersive media as low-order Taylor expansions of k(omega).

A medium is reduced to the first two dispersive Taylor coefficients of its
wave vector about the carrier: a group-delay term ``alpha`` (fs/cm) and a
group-delay-dispersion term ``beta`` (fs^2/cm).  Paths are ordered lists of
segments; their aggregate coefficients are additive in ``coefficient *
length``.

For air the coefficients are derived from empirical refractive-index
formulas:

* B. Edlén, "The refractive index of air", Metrologia 2, 71 (1966) —
  dry-air dispersion equation plus density correction.
* J. C. Owens, "Optical refractive index of air: dependence on pressure,
  temperature and composition", Appl. Opt. 6, 51 (1967) — dry-air and
  water-vapour terms; used whenever humidity matters.
* A. L. Buck, "New equations for computing vapor pressure and enhancement
  factor", J. Appl. Meteor. 20, 1527 (1981) — saturation vapour pressure
  over water, to turn relative humidity into a partial pressure.

``AIR_FORMULAS`` maps each formula's name to its refractivity function, and
everything that selects a formula by name reads it.  All empirical
coefficients below are transcribed from those publications.
The wavelength validity window is enforced as 350–1700 nm, a conservative
envelope of the two formulas; outside it the functions raise rather than
extrapolate.  Temperature has a window too, −20…+50 °C, the range the Buck
fit states for itself; :func:`air_dispersion_coefficient` applies it to
both formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .constants import C_CM_PER_FS, omega_from_wavelength_nm, wavelength_nm_from_omega
from .errors import CancellationError, DomainError

__all__ = [
    "MediumSegment",
    "PathPair",
    "AirConditions",
    "REFERENCE_AIR",
    "path_coefficients",
    "edlen_refractivity",
    "owens_refractivity",
    "AIR_FORMULAS",
    "air_index_function",
    "edlen_index_function",
    "owens_index_function",
    "air_dispersion_coefficient",
    "beta_from_index",
    "reference_air_beta",
    "equivalent_air_length",
    "material_catalog",
    "catalog_segment",
]

WAVELENGTH_RANGE_NM = (350.0, 1700.0)
TEMPERATURE_RANGE_C = (-20.0, 50.0)

_TORR_PER_PA = 760.0 / 101325.0
_MBAR_PER_PA = 1e-2


@dataclass(frozen=True)
class MediumSegment:
    """One dispersive element of a propagation path.

    alpha : group-delay coefficient, fs/cm
    beta  : group-delay-dispersion coefficient, fs^2/cm
            (may be negative; opposite signs in the two paths are what make
            cancellation configurations possible)
    length : cm, non-negative
    """

    label: str
    alpha: float
    beta: float
    length: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(f"segment {self.label!r}: alpha and beta must be finite")
        if not (math.isfinite(self.length) and self.length >= 0):
            raise DomainError(f"segment {self.label!r}: length must be >= 0, got {self.length}")


@dataclass(frozen=True)
class PathPair:
    """The two propagation paths from source to the two detectors."""

    path1: tuple[MediumSegment, ...]
    path2: tuple[MediumSegment, ...]

    def __init__(self, path1: Iterable[MediumSegment], path2: Iterable[MediumSegment]):
        object.__setattr__(self, "path1", tuple(path1))
        object.__setattr__(self, "path2", tuple(path2))

    def coefficients(self) -> tuple[float, float, float, float]:
        """Aggregate (alpha*x, beta*x) for both paths.

        Returns ``(delay1, gdd1, delay2, gdd2)`` in (fs, fs^2, fs, fs^2).
        """
        delay1, gdd1 = path_coefficients(self.path1)
        delay2, gdd2 = path_coefficients(self.path2)
        return delay1, gdd1, delay2, gdd2


def path_coefficients(path: Sequence[MediumSegment]) -> tuple[float, float]:
    """Aggregate Taylor coefficients of a path.

    Returns ``(sum_i alpha_i * x_i, sum_i beta_i * x_i)`` in (fs, fs^2).
    Empty paths aggregate to (0, 0).  Sums are correctly rounded
    (``math.fsum``), so aggregation over a concatenation equals the sum of
    the aggregates whenever the partial sums are exactly representable.
    """
    delay = math.fsum(seg.alpha * seg.length for seg in path)
    gdd = math.fsum(seg.beta * seg.length for seg in path)
    return delay, gdd


@dataclass(frozen=True)
class AirConditions:
    """Atmospheric state for the refractive-index formulas.

    temperature_c : air temperature, degrees Celsius (validity window
                    -20..+50 C, checked by :func:`air_dispersion_coefficient`)
    pressure_pa   : total pressure, Pa (> 0)
    relative_humidity : fraction in [0, 1]
    wavelength_nm : vacuum wavelength, nm (validity window 350-1700 nm,
                    checked at evaluation time)
    """

    temperature_c: float = 15.0
    pressure_pa: float = 101325.0
    relative_humidity: float = 0.0
    wavelength_nm: float = 800.0

    def __post_init__(self):
        if not -273.15 < self.temperature_c < math.inf:
            raise DomainError(
                f"temperature must be finite and above absolute zero (-273.15 C), "
                f"got {self.temperature_c} C"
            )
        if not math.isfinite(self.wavelength_nm):
            raise DomainError(f"wavelength must be finite, got {self.wavelength_nm} nm")
        if not 0 < self.pressure_pa < math.inf:
            raise DomainError(f"pressure must be finite and positive, got {self.pressure_pa} Pa")
        if not 0.0 <= self.relative_humidity <= 1.0:
            raise DomainError(
                f"relative humidity must be a fraction in [0, 1], got {self.relative_humidity}"
            )


REFERENCE_AIR = AirConditions(
    temperature_c=15.0, pressure_pa=101325.0, relative_humidity=0.20, wavelength_nm=800.0
)
"""Humid standard air at 800 nm: the reference state for air/silica equivalences."""


def _check_wavelength(wavelength_nm: float) -> None:
    lo, hi = WAVELENGTH_RANGE_NM
    if not lo <= wavelength_nm <= hi:
        raise DomainError(
            f"wavelength {wavelength_nm:g} nm outside the validity window "
            f"[{lo:g}, {hi:g}] nm of the empirical air-index formulas"
        )


def edlen_refractivity(conditions: AirConditions) -> float:
    """Refractivity (n - 1) of dry air after Edlén (1966).

    Dispersion equation for standard air (15 C, 101325 Pa, 0.03% CO2)
    rescaled by the Edlén density factor for the given temperature and
    pressure.  Humidity is ignored: this is the dry-air formula; use
    :func:`owens_refractivity` when water vapour matters.
    """
    _check_wavelength(conditions.wavelength_nm)
    sig2 = (1000.0 / conditions.wavelength_nm) ** 2  # (1/lambda_um)^2
    ns = (8342.13 + 2406030.0 / (130.0 - sig2) + 15997.0 / (38.9 - sig2)) * 1e-8

    t = conditions.temperature_c
    p_torr = conditions.pressure_pa * _TORR_PER_PA
    density = (p_torr * (1.0 + p_torr * (0.817 - 0.0133 * t) * 1e-6)
               / (720.775 * (1.0 + 0.0036610 * t)))
    return ns * density


_BUCK_POLE_C = -257.14


def _saturation_vapor_pressure_mbar(temperature_c: float) -> float:
    # Buck (1981), over water; accurate to ~0.1% between -20 C and +50 C.
    # Above its pole the exponent stays below ~20, so exp cannot overflow.
    t = temperature_c
    if not t > _BUCK_POLE_C:
        raise DomainError(
            f"temperature {t} C is at or below the pole ({_BUCK_POLE_C} C) of the Buck "
            "saturation-vapour-pressure fit that the Owens formula uses"
        )
    return 6.1121 * math.exp((18.678 - t / 234.5) * t / (257.14 + t))


def owens_refractivity(conditions: AirConditions) -> float:
    """Refractivity (n - 1) of moist air after Owens (1967).

    Separate dispersion terms for the dry-air component and for water
    vapour, each multiplied by its density factor; pressures in mbar,
    temperature in kelvin.  The water-vapour partial pressure comes from
    the relative humidity via the Buck saturation-pressure equation.

    Raises :class:`DomainError` when the temperature is at or below the
    Buck fit's pole (-257.14 C), and when a density term or the result is
    not finite (e.g. ``temperature_c=1e200``, whose powers overflow).
    """
    _check_wavelength(conditions.wavelength_nm)
    sig2 = (1000.0 / conditions.wavelength_nm) ** 2

    t_k = conditions.temperature_c + 273.15
    p_total = conditions.pressure_pa * _MBAR_PER_PA
    p_water = conditions.relative_humidity * _saturation_vapor_pressure_mbar(conditions.temperature_c)
    if p_water > p_total:
        raise DomainError("water-vapour partial pressure exceeds total pressure")
    p_dry = p_total - p_water

    try:
        density_dry = (p_dry / t_k) * (
            1.0 + p_dry * (57.90e-8 - 9.3250e-4 / t_k + 0.25844 / t_k**2)
        )
        density_water = (p_water / t_k) * (
            1.0 + p_water * (1.0 + 3.7e-4 * p_water)
            * (-2.37321e-3 + 2.23366 / t_k - 710.792 / t_k**2 + 7.75141e4 / t_k**3)
        )
    except OverflowError:
        density_dry = density_water = math.inf

    dry_term = 2371.34 + 683939.7 / (130.0 - sig2) + 4547.3 / (38.9 - sig2)
    water_term = 6487.31 + 58.058 * sig2 - 0.71150 * sig2**2 + 0.08851 * sig2**3
    refractivity = (dry_term * density_dry + water_term * density_water) * 1e-8
    if not math.isfinite(refractivity):
        raise DomainError(
            f"Owens refractivity is not finite at temperature {conditions.temperature_c} C, "
            f"pressure {conditions.pressure_pa} Pa, relative humidity "
            f"{conditions.relative_humidity}"
        )
    return refractivity


AIR_FORMULAS: Mapping[str, Callable[[AirConditions], float]] = MappingProxyType({
    "edlen": edlen_refractivity,
    "owens": owens_refractivity,
})
"""The air-index formulas by name: each maps conditions to the refractivity n - 1."""


def air_index_function(conditions: AirConditions, formula: str) -> Callable[[float], float]:
    """n(omega) for air under the :data:`AIR_FORMULAS` entry ``formula``; omega in rad/fs."""
    refractivity = AIR_FORMULAS.get(formula)
    if refractivity is None:
        raise DomainError(f"unknown air-index formula {formula!r}; known: {sorted(AIR_FORMULAS)}")

    def index(omega: float) -> float:
        wl = wavelength_nm_from_omega(omega)
        return 1.0 + refractivity(replace(conditions, wavelength_nm=wl))

    return index


def edlen_index_function(conditions: AirConditions) -> Callable[[float], float]:
    """n(omega) for Edlén air at fixed conditions; omega in rad/fs."""
    return air_index_function(conditions, "edlen")


def owens_index_function(conditions: AirConditions) -> Callable[[float], float]:
    """n(omega) for Owens air at fixed conditions; omega in rad/fs."""
    return air_index_function(conditions, "owens")


def beta_from_index(
    index_fn: Callable[[float], float],
    omega0: float,
    step: float | None = None,
) -> float:
    """Group-delay-dispersion coefficient from a refractive-index model.

    beta = (1/2c) * d^2[omega * n(omega)]/domega^2, evaluated at ``omega0``
    (rad/fs) and returned in fs^2/cm.  The second derivative comes from
    central differences at ``step`` and ``step/2`` combined by Richardson
    extrapolation; differentiating ``omega * (n - 1)`` instead of
    ``omega * n`` removes the huge linear part before any subtraction.

    The default step is 1e-3 * omega0.  Steps much smaller than that push
    the second difference of a quantity of size ~1e-4 into roundoff; when
    the estimated noise floor or the h vs h/2 disagreement exceeds 1e-3 of
    the result, a :class:`CancellationError` with a suggested step is
    raised instead of returning digits that are not there.
    """
    if omega0 <= 0:
        raise DomainError(f"omega0 must be positive, got {omega0}")
    h = 1e-3 * omega0 if step is None else float(step)
    if h <= 0:
        raise DomainError(f"step must be positive, got {h}")

    # Differencing n against its carrier value preserves the curvature of
    # omega*n (the dropped term is linear in omega) while making constant
    # indices difference to an exact zero; the subtraction itself is exact
    # for any physical index (Sterbenz).
    n_center = index_fn(omega0)

    def curvature(hh: float) -> float:
        gp = (omega0 + hh) * (index_fn(omega0 + hh) - n_center)
        gm = (omega0 - hh) * (index_fn(omega0 - hh) - n_center)
        return (gp + gm) / (hh * hh)

    d_h = curvature(h)
    d_h2 = curvature(h / 2)
    second = (4.0 * d_h2 - d_h) / 3.0
    if second == 0.0:
        return 0.0

    # Worst-case quantization of the index values (~ulp(1) each) spread over
    # the squared half-step.  Realized errors are usually far smaller, but
    # only this bound certifies the digits.
    eps = math.ulp(1.0)
    noise = 16.0 * eps * omega0 / (h * h)
    if noise > 1e-3 * abs(second):
        suggested = h * math.sqrt(noise / (1e-6 * abs(second)))
        raise CancellationError(
            f"at step {h:.3e} rad/fs the roundoff floor ({noise:.2e}) swamps the "
            f"measured curvature ({abs(second):.2e}); try step ~{suggested:.3e}",
            suggested_step=suggested,
        )
    wobble = abs(d_h - d_h2)
    if wobble > 1e-3 * abs(second):
        raise CancellationError(
            f"second derivative not stable under step halving at step {h:.3e} rad/fs "
            f"(relative change {wobble / abs(second):.2e}); the index varies too fast "
            f"over the step; try step ~{h / 4.0:.3e}",
            suggested_step=h / 4.0,
        )
    return second / (2.0 * C_CM_PER_FS)


def air_dispersion_coefficient(conditions: AirConditions, formula: str = "edlen") -> float:
    """beta of air (fs^2/cm) at the conditions' wavelength.

    ``formula`` is a key of :data:`AIR_FORMULAS`, ``"edlen"`` (dry) or ``"owens"`` (humid).
    Air disperses normally, so a result that is not finite and positive
    means the formula has left its range at these conditions (a near-vacuum
    pressure whose index rounds to exactly 1, or a temperature whose
    density factor overflows); that raises :class:`DomainError`.  So does a
    temperature outside ``TEMPERATURE_RANGE_C``, checked after the result so
    that a formula's own failure keeps its own message.
    """
    beta = beta_from_index(air_index_function(conditions, formula),
                           omega_from_wavelength_nm(conditions.wavelength_nm))
    if not 0 < beta < math.inf:
        raise DomainError(
            f"{formula} air dispersion coefficient is {beta} fs^2/cm, not finite and positive, "
            f"at temperature {conditions.temperature_c} C, pressure {conditions.pressure_pa} Pa, "
            f"relative humidity {conditions.relative_humidity}"
        )
    lo, hi = TEMPERATURE_RANGE_C
    if not lo <= conditions.temperature_c <= hi:
        raise DomainError(
            f"temperature {conditions.temperature_c:g} C outside the validity window "
            f"[{lo:g}, {hi:g}] C of the empirical air-index formulas"
        )
    return beta


@lru_cache(maxsize=1)
def reference_air_beta() -> float:
    """Owens dispersion coefficient of :data:`REFERENCE_AIR`, fs^2/cm (cached)."""
    return air_dispersion_coefficient(REFERENCE_AIR, formula="owens")


def equivalent_air_length(silica_length_cm: float) -> float:
    """Length of reference air (m) with the same total dispersion as the
    given length of fused silica (cm).

    Uses the catalog silica coefficient and the Owens coefficient of
    :data:`REFERENCE_AIR` (humid standard air at 800 nm).
    """
    if silica_length_cm < 0:
        raise DomainError(f"silica length must be >= 0, got {silica_length_cm}")
    beta_silica = material_catalog()["fused_silica"].beta
    return silica_length_cm * (beta_silica / reference_air_beta()) / 100.0


# -- materials catalog -------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    label: str
    alpha: float   # fs/cm
    beta: float    # fs^2/cm
    note: str


def _parse_catalog(text: str) -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4:
            raise DomainError(f"materials catalog line {lineno}: expected 4 fields, got {len(fields)}")
        label, alpha, beta, note = fields
        entries[label] = CatalogEntry(label=label, alpha=float(alpha), beta=float(beta), note=note)
    return entries


@lru_cache(maxsize=1)
def material_catalog() -> Mapping[str, CatalogEntry]:
    """The built-in materials catalog, parsed once and immutable."""
    text = (resources.files("qtiming") / "data" / "materials.dat").read_text(encoding="utf-8")
    return MappingProxyType(_parse_catalog(text))


def catalog_segment(material: str, length_cm: float) -> MediumSegment:
    """A :class:`MediumSegment` of catalog material with the given length."""
    catalog = material_catalog()
    if material not in catalog:
        raise DomainError(
            f"unknown material {material!r}; catalog has {sorted(catalog)}"
        )
    entry = catalog[material]
    return MediumSegment(label=entry.label, alpha=entry.alpha, beta=entry.beta, length=length_cm)

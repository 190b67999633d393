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

``AIR_FORMULAS`` maps each formula's name to its refractivity function.
All empirical coefficients below are transcribed from those publications.
Air's dispersion coefficient is exact: each formula evaluates its n - 1 or,
from the same coefficients, the closed-form second derivative that
:func:`air_dispersion_coefficient` turns into beta.  Nothing differences
the built-in formulas: the finite-difference route is for a user's index model.
Each formula takes the atmosphere (:class:`AirConditions`) and the carrier
wavelength, and starts with one check of both validity windows: 350–1700 nm,
a conservative envelope of the two formulas, and −20…+50 °C, the range the
Buck fit states for itself.  Outside either window the formulas raise rather
than extrapolate.  Each law's result passes ``constants._finite_or_raise``,
as the width laws' do: one that overflows, or is 0 where the law's exact
value is not, raises :class:`DomainError` naming the inputs.  The materials
catalog holds its coefficients at 800 nm (``CATALOG_WAVELENGTH_NM``) only;
air's come from the formulas at any carrier.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from ._record import record
from .constants import (C_CM_PER_FS, C_NM_PER_FS, _check_finite, _finite_or_raise,
                        omega_from_wavelength_nm, wavelength_nm_from_omega)
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
    "air_length_m",
    "material_catalog",
    "resolve_material",
    "catalog_segment",
]

WAVELENGTH_RANGE_NM = (350.0, 1700.0)
TEMPERATURE_RANGE_C = (-20.0, 50.0)
CATALOG_WAVELENGTH_NM = 800.0  # the carrier (nm) at which the catalog holds its coefficients

_TORR_PER_PA = 760.0 / 101325.0
_MBAR_PER_PA = 1e-2


@record
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
            raise DomainError(
                f"segment {self.label!r}: length must be finite and >= 0, got {self.length}")


@record
class PathPair:
    """The two propagation paths from source to the two detectors."""

    path1: tuple[MediumSegment, ...]
    path2: tuple[MediumSegment, ...]

    def __init__(self, path1: Iterable[MediumSegment], path2: Iterable[MediumSegment]):
        object.__setattr__(self, "path1", tuple(path1))
        object.__setattr__(self, "path2", tuple(path2))

    @classmethod
    def symmetric(cls, gdd_total: float) -> "PathPair":
        """A bare total GDD (fs^2), split evenly over two single-segment paths."""
        if not math.isfinite(gdd_total):
            raise DomainError(f"the total GDD B must be finite, got {gdd_total} fs^2")
        half = MediumSegment("aggregate", alpha=0.0, beta=gdd_total / 2.0, length=1.0)
        return cls([half], [half])

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
    A sum that leaves float64 raises :class:`DomainError`.
    """
    try:
        delay = math.fsum(seg.alpha * seg.length for seg in path)
        gdd = math.fsum(seg.beta * seg.length for seg in path)
    except (OverflowError, ValueError):  # finite terms summing past float64, or inf + -inf
        raise DomainError("a path's sum of coefficient * length overflows float64") from None
    return delay, gdd


@record
class AirConditions:
    """Atmospheric state for the refractive-index formulas; the carrier
    wavelength is an argument of each formula, not part of the state.

    temperature_c : air temperature, degrees Celsius (finite, above absolute zero)
    pressure_pa   : total pressure, Pa (> 0)
    relative_humidity : fraction in [0, 1]

    Each formula checks its validity windows, -20..+50 C and 350-1700 nm,
    when it is evaluated.
    """

    temperature_c: float = 15.0
    pressure_pa: float = 101325.0
    relative_humidity: float = 0.0

    def __post_init__(self):
        if not -273.15 < self.temperature_c < math.inf:
            raise DomainError(
                f"temperature must be finite and above absolute zero (-273.15 C), "
                f"got {self.temperature_c} C"
            )
        if not 0 < self.pressure_pa < math.inf:
            raise DomainError(f"pressure must be finite and positive, got {self.pressure_pa} Pa")
        if not 0.0 <= self.relative_humidity <= 1.0:
            raise DomainError(
                f"relative humidity must be a fraction in [0, 1], got {self.relative_humidity}"
            )


REFERENCE_AIR = AirConditions(temperature_c=15.0, pressure_pa=101325.0, relative_humidity=0.20)
"""Humid standard air: the reference state for air/silica equivalences."""


def _check_windows(conditions: AirConditions, wavelength_nm: float) -> None:
    """Raise unless the wavelength and the temperature lie in the formulas' validity windows."""
    for quantity, value, (lo, hi), unit in (
        ("wavelength", wavelength_nm, WAVELENGTH_RANGE_NM, "nm"),
        ("temperature", conditions.temperature_c, TEMPERATURE_RANGE_C, "C"),
    ):
        if not lo <= value <= hi:
            raise DomainError(
                f"{quantity} {value:g} {unit} outside the validity window "
                f"[{lo:g}, {hi:g}] {unit} of the empirical air-index formulas"
            )


def _dry_air(c: float, b_far: float, b_near: float, sigma: float, curved: bool) -> float:
    """The dry-air term c + b_far/(130 - sigma^2) + b_near/(38.9 - sigma^2) of both formulas,
    whose poles they share, or, if ``curved``, the sigma-curvature of sigma times it.

    Each pole's sigma * b/(a - sigma^2) curves by 2 b sigma (3a + sigma^2)/(a - sigma^2)^3.
    """
    far, near = 130.0 - sigma**2, 38.9 - sigma**2
    if curved:
        return 2.0 * sigma * (b_far * (3.0 * 130.0 + sigma**2) / far**3
                              + b_near * (3.0 * 38.9 + sigma**2) / near**3)
    return c + b_far / far + b_near / near


def _edlen(conditions: AirConditions, wavelength_nm: float, curved: bool = False) -> float:
    """Edlén's n - 1, or, if ``curved``, its curvature d^2[sigma (n - 1)]/dsigma^2;
    unchecked (see :func:`edlen_refractivity`)."""
    _check_windows(conditions, wavelength_nm)
    sigma = 1000.0 / wavelength_nm  # 1/lambda_um
    t = conditions.temperature_c
    p_torr = conditions.pressure_pa * _TORR_PER_PA
    density = (p_torr * (1.0 + p_torr * (0.817 - 0.0133 * t) * 1e-6)
               / (720.775 * (1.0 + 0.0036610 * t)))
    return _dry_air(8342.13, 2406030.0, 15997.0, sigma, curved) * 1e-8 * density


def edlen_refractivity(conditions: AirConditions,
                       wavelength_nm: float = CATALOG_WAVELENGTH_NM) -> float:
    """Refractivity (n - 1) of dry air after Edlén (1966) at ``wavelength_nm``.

    Dispersion equation for standard air (15 C, 101325 Pa, 0.03% CO2)
    rescaled by the Edlén density factor for the given temperature and
    pressure.  Humidity is ignored: this is the dry-air formula; use
    :func:`owens_refractivity` when water vapour matters.
    """
    return _finite_or_raise(_edlen(conditions, wavelength_nm), "Edlen refractivity", None,
                            **vars(conditions))


def _saturation_vapor_pressure_mbar(temperature_c: float) -> float:
    # Buck (1981), over water; accurate to ~0.1% between -20 C and +50 C.
    t = temperature_c
    return 6.1121 * math.exp((18.678 - t / 234.5) * t / (257.14 + t))


def _owens(conditions: AirConditions, wavelength_nm: float, curved: bool = False) -> float:
    """Owens's n - 1, or, if ``curved``, its curvature d^2[sigma (n - 1)]/dsigma^2;
    unchecked (see :func:`owens_refractivity`)."""
    _check_windows(conditions, wavelength_nm)
    sigma = 1000.0 / wavelength_nm
    sig2 = sigma**2

    t_k = conditions.temperature_c + 273.15
    p_total = conditions.pressure_pa * _MBAR_PER_PA
    p_water = conditions.relative_humidity * _saturation_vapor_pressure_mbar(conditions.temperature_c)
    if p_water > p_total:
        raise DomainError("water-vapour partial pressure exceeds total pressure")
    p_dry = p_total - p_water

    density_dry = (p_dry / t_k) * (
        1.0 + p_dry * (57.90e-8 - 9.3250e-4 / t_k + 0.25844 / t_k**2)
    )
    density_water = (p_water / t_k) * (
        1.0 + p_water * (1.0 + 3.7e-4 * p_water)
        * (-2.37321e-3 + 2.23366 / t_k - 710.792 / t_k**2 + 7.75141e4 / t_k**3)
    )

    # each c_k sigma^(2k+1) of sigma * water_term curves by (2k+1)(2k) c_k sigma^(2k-1)
    water_term = ((6.0 * 58.058 - 20.0 * 0.71150 * sig2 + 42.0 * 0.08851 * sig2**2) * sigma
                  if curved else 6487.31 + 58.058 * sig2 - 0.71150 * sig2**2 + 0.08851 * sig2**3)
    dry_term = _dry_air(2371.34, 683939.7, 4547.3, sigma, curved)
    return (dry_term * density_dry + water_term * density_water) * 1e-8


def owens_refractivity(conditions: AirConditions,
                       wavelength_nm: float = CATALOG_WAVELENGTH_NM) -> float:
    """Refractivity (n - 1) of moist air after Owens (1967) at ``wavelength_nm``.

    Separate dispersion terms for the dry-air component and for water
    vapour, each multiplied by its density factor; pressures in mbar,
    temperature in kelvin.  The water-vapour partial pressure comes from
    the relative humidity via the Buck saturation-pressure equation.
    """
    return _finite_or_raise(_owens(conditions, wavelength_nm), "Owens refractivity", None,
                            **vars(conditions))


AIR_FORMULAS: Mapping[str, Callable[[AirConditions, float], float]] = MappingProxyType({
    "edlen": edlen_refractivity,
    "owens": owens_refractivity,
})
"""The air-index formulas by name: each maps conditions and a wavelength (nm) to n - 1."""

_LAWS = MappingProxyType({edlen_refractivity: _edlen, owens_refractivity: _owens})
"""The unchecked law behind each :data:`AIR_FORMULAS` value, which also gives its curvature."""


def _formula(formula: str) -> Callable[[AirConditions, float], float]:
    """``AIR_FORMULAS[formula]``; DomainError for a name not in it."""
    if formula not in AIR_FORMULAS:
        raise DomainError(f"unknown air-index formula {formula!r}; known: {sorted(AIR_FORMULAS)}")
    return AIR_FORMULAS[formula]


def air_index_function(conditions: AirConditions, formula: str) -> Callable[[float], float]:
    """n(omega) for air under the :data:`AIR_FORMULAS` entry ``formula``; omega in rad/fs."""
    refractivity = _formula(formula)

    def index(omega: float) -> float:
        return 1.0 + refractivity(conditions, wavelength_nm_from_omega(omega))

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
    """Group-delay-dispersion coefficient from a user's refractive-index model.

    beta = (1/2c) * d^2[omega * n(omega)]/domega^2, evaluated at ``omega0``
    (rad/fs) and returned in fs^2/cm.  The second derivative comes from
    central differences at ``step`` and ``step/2`` combined by Richardson
    extrapolation; differentiating ``omega * (n - 1)`` instead of
    ``omega * n`` removes the huge linear part before any subtraction.

    The default step is 1e-3 * omega0.  Steps much smaller than that push
    the second difference of a quantity of size ~1e-4 into roundoff; when
    the estimated noise floor or the h vs h/2 disagreement exceeds 1e-3 of
    the result, a :class:`CancellationError` with a suggested step is
    raised instead of returning digits that are not there.  The built-in air
    formulas need no difference: :func:`air_dispersion_coefficient` is exact.
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


def air_dispersion_coefficient(conditions: AirConditions, formula: str = "edlen",
                               wavelength_nm: float = CATALOG_WAVELENGTH_NM) -> float:
    """beta of air (fs^2/cm) at the carrier ``wavelength_nm``.

    ``formula`` is a key of :data:`AIR_FORMULAS`, ``"edlen"`` (dry) or ``"owens"`` (humid).
    beta = (1/2c) d^2[omega (n - 1)]/domega^2 is exact, in closed form from the
    formula's own coefficients: with sigma = 1/lambda_um and omega = a sigma,
    a = 2 pi c / 1000 nm, it is the sigma-curvature of sigma (n - 1) over 2 c a.
    Air disperses normally, so beta is positive.
    """
    law = _LAWS[_formula(formula)]
    omega_from_wavelength_nm(wavelength_nm)  # raises unless finite and positive
    curvature = law(conditions, wavelength_nm, curved=True)
    # 2 c a, a = 2 pi c / 1000 nm: in this order the float is the nearest to its exact value
    beta = curvature / (2.0 * C_CM_PER_FS * math.tau * C_NM_PER_FS / 1000.0)
    return _finite_or_raise(beta, f"{formula} air dispersion coefficient", None, **vars(conditions))


def reference_air_beta(wavelength_nm: float = CATALOG_WAVELENGTH_NM) -> float:
    """Owens dispersion coefficient of :data:`REFERENCE_AIR` at ``wavelength_nm``, fs^2/cm."""
    return air_dispersion_coefficient(REFERENCE_AIR, "owens", wavelength_nm)


def air_length_m(gdd: float, air_beta: float) -> float:
    """Length (m) of air of coefficient ``air_beta`` (fs^2/cm, > 0) with the GDD ``gdd`` (fs^2).

    The length has the GDD's sign.
    """
    _check_finite(gdd_fs2=gdd)
    _check_finite(positive=True, air_beta_fs2_per_cm=air_beta)
    length_m = _finite_or_raise(abs(gdd) / 100.0 / air_beta, "air length", None,
                                positive=gdd != 0, gdd_fs2=gdd, air_beta_fs2_per_cm=air_beta)
    return math.copysign(length_m, gdd)


def equivalent_air_length(silica_length_cm: float) -> float:
    """Length (m) of :data:`REFERENCE_AIR` at 800 nm, Owens coefficient, with the
    GDD of ``silica_length_cm`` cm of the catalog's fused silica."""
    if not (math.isfinite(silica_length_cm) and silica_length_cm >= 0):
        raise DomainError(f"silica length must be finite and >= 0, got {silica_length_cm}")
    gdd = _finite_or_raise(silica_length_cm * _CATALOG["fused_silica"].beta, "silica GDD", None,
                           positive=False, silica_length_cm=silica_length_cm)
    return air_length_m(gdd, reference_air_beta())


# -- materials catalog -------------------------------------------------------

@record
class CatalogEntry:
    label: str
    alpha: float   # fs/cm
    beta: float    # fs^2/cm
    note: str


# Engineering values at 800 nm, per cm of material.  alpha is catalogued as
# 0 for solids: only differences of alpha*length between two paths enter any
# observable here, so supply alpha explicitly whenever the distribution mean
# matters.
_CATALOG: Mapping[str, CatalogEntry] = MappingProxyType({entry.label: entry for entry in (
    CatalogEntry("fused_silica", 0.0, 250.0, "round-number GDD of fused silica near 800 nm "
                 "(2*beta ~ 500 fs^2/cm); alpha not catalogued"),
    CatalogEntry("vacuum", 0.0, 0.0, "dispersionless reference medium"),
)})
_ALIASES = {"silica": "fused_silica"}


def material_catalog() -> Mapping[str, CatalogEntry]:
    """The built-in materials catalog, immutable."""
    return _CATALOG


def resolve_material(name: str, wavelength_nm: float = CATALOG_WAVELENGTH_NM) -> str:
    """The material ``name`` stands for: ``"air"`` or a catalog key (``silica`` is ``fused_silica``),
    which at a carrier ``wavelength_nm`` other than 800 nm must not disperse."""
    omega_from_wavelength_nm(wavelength_nm)  # raises unless finite and positive
    material = _ALIASES.get(name, name)
    if material != "air" and material not in _CATALOG:
        raise DomainError(f"unknown material {name!r}; catalog has {sorted(_CATALOG)} plus 'air'")
    if material != "air" and _CATALOG[material].beta != 0 and wavelength_nm != CATALOG_WAVELENGTH_NM:
        raise DomainError(f"the catalog holds {material} at 800 nm only, not at {wavelength_nm:g} nm")
    return material


def catalog_segment(material: str, length_cm: float,
                    wavelength_nm: float = CATALOG_WAVELENGTH_NM) -> MediumSegment:
    """A :class:`MediumSegment` of a :func:`resolve_material` name at the carrier
    ``wavelength_nm``; air is :data:`REFERENCE_AIR` at that wavelength."""
    material = resolve_material(material, wavelength_nm)
    if material == "air":
        return MediumSegment("air", 0.0, reference_air_beta(wavelength_nm), length_cm)
    entry = _CATALOG[material]
    return MediumSegment(label=entry.label, alpha=entry.alpha, beta=entry.beta, length=length_cm)

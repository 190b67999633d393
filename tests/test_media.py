"""Tests for dispersive-media aggregation and the air-index formulas.

Frozen reference numbers were computed independently with mpmath (40
digits) from the published Edlén 1966 / Owens 1967 coefficients and a
high-order derivative for the dispersion coefficient.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtiming import media
from qtiming.cli import main
from qtiming.constants import C_CM_PER_FS, omega_from_wavelength_nm, wavelength_nm_from_omega
from qtiming.errors import CancellationError, DomainError
from qtiming.media import (
    _MBAR_PER_PA,
    _TORR_PER_PA,
    AIR_FORMULAS,
    REFERENCE_AIR,
    TEMPERATURE_RANGE_C,
    WAVELENGTH_RANGE_NM,
    AirConditions,
    MediumSegment,
    PathPair,
    air_dispersion_coefficient,
    air_index_function,
    air_length_m,
    beta_from_index,
    catalog_segment,
    edlen_index_function,
    edlen_refractivity,
    equivalent_air_length,
    material_catalog,
    owens_index_function,
    owens_refractivity,
    path_coefficients,
    reference_air_beta,
    resolve_material,
    _saturation_vapor_pressure_mbar,
)

# mpmath truths (Edlén/Owens transcriptions evaluated at 40 digits)
EDLEN_800_15C_STD = 2.75036647187e-4
OWENS_800_15C_STD_DRY = 2.75046119473e-4
OWENS_800_15C_STD_RH20 = 2.74898475399e-4
BETA_EDLEN_800 = 0.1064725235       # fs^2/cm, mpmath second derivative
BETA_OWENS_RH20_800 = 0.1065567726  # fs^2/cm


def silica(length_cm):
    return catalog_segment("fused_silica", length_cm)


class TestPathCoefficients:
    def test_empty_path(self):
        assert path_coefficients([]) == (0.0, 0.0)

    def test_single_silica_segment(self):
        delay, gdd = path_coefficients([silica(1.0)])
        assert gdd == 250.0
        assert delay == 0.0

    def test_opposite_signs_cancel(self):
        plus = MediumSegment("plus", alpha=0.0, beta=250.0, length=1.0)
        minus = MediumSegment("minus", alpha=0.0, beta=-250.0, length=1.0)
        _, gdd = path_coefficients([plus, minus])
        assert gdd == 0.0

    def test_lengths_scale_coefficients(self):
        seg = MediumSegment("m", alpha=3.0, beta=-7.0, length=2.5)
        assert path_coefficients([seg]) == (7.5, -17.5)

    @given(
        st.lists(
            st.tuples(
                st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(0, 1000)
            ),
            max_size=8,
        ),
        st.lists(
            st.tuples(
                st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(0, 1000)
            ),
            max_size=8,
        ),
    )
    def test_additivity_over_concatenation(self, spec_a, spec_b):
        # Integer-valued coefficients make every product and partial sum
        # exactly representable, so additivity must hold bit for bit.
        make = lambda spec: [
            MediumSegment("s", alpha=float(a), beta=float(b), length=float(x))
            for a, b, x in spec
        ]
        a, b = make(spec_a), make(spec_b)
        whole = path_coefficients(a + b)
        parts = tuple(
            pa + pb for pa, pb in zip(path_coefficients(a), path_coefficients(b))
        )
        assert whole == parts

    def test_pathpair_aggregates_both_paths(self):
        paths = PathPair([silica(1.0), silica(2.0)], [silica(4.0)])
        assert paths.coefficients() == (0.0, 750.0, 0.0, 1000.0)

    @pytest.mark.parametrize("path", [
        # Finite terms whose sum leaves float64 (math.fsum: OverflowError).
        [silica(7e305), silica(7e305)],
        [MediumSegment("fast", alpha=1.5e308, beta=0.0, length=1.0)] * 2,
        # Terms that overflow to +inf and -inf (math.fsum: ValueError).
        [MediumSegment("plus", alpha=0.0, beta=1e300, length=1e10),
         MediumSegment("minus", alpha=0.0, beta=-1e300, length=1e10)],
    ], ids=["finite-gdd-terms", "finite-delay-terms", "opposite-infinite-terms"])
    def test_sum_beyond_float64_is_domain_error(self, path):
        with pytest.raises(DomainError, match="overflows float64"):
            path_coefficients(path)
        with pytest.raises(DomainError, match="overflows float64"):
            PathPair(path, []).coefficients()


class TestSegmentValidation:
    def test_negative_length_rejected(self):
        with pytest.raises(DomainError, match="length must be finite and >= 0"):
            MediumSegment("bad", alpha=0.0, beta=1.0, length=-1.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(DomainError, match="length must be finite and >= 0"):
            MediumSegment("bad", alpha=0.0, beta=1.0, length=length)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(DomainError):
            MediumSegment("bad", alpha=math.nan, beta=0.0, length=1.0)
        with pytest.raises(DomainError):
            MediumSegment("bad", alpha=0.0, beta=math.inf, length=1.0)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf])
    def test_non_finite_symmetric_total_is_named(self, total):
        with pytest.raises(DomainError) as info:
            PathPair.symmetric(total)
        assert str(info.value) == f"the total GDD B must be finite, got {total} fs^2"

    def test_negative_beta_allowed(self):
        seg = MediumSegment("anomalous", alpha=0.0, beta=-250.0, length=1.0)
        assert seg.beta == -250.0


class TestAirConditions:
    def test_defaults_are_standard_air(self):
        cond = AirConditions()
        assert cond.temperature_c == 15.0
        assert cond.pressure_pa == 101325.0

    def test_holds_the_atmosphere_only(self):
        assert vars(AirConditions()) == {
            "temperature_c": 15.0, "pressure_pa": 101325.0, "relative_humidity": 0.0}
        with pytest.raises(TypeError):
            AirConditions(wavelength_nm=800.0)

    @pytest.mark.parametrize("rh", [-0.1, 1.5])
    def test_bad_humidity_rejected(self, rh):
        with pytest.raises(DomainError):
            AirConditions(relative_humidity=rh)

    def test_nonpositive_pressure_rejected(self):
        with pytest.raises(DomainError):
            AirConditions(pressure_pa=0.0)

    @pytest.mark.parametrize("pressure", [math.nan, math.inf])
    def test_non_finite_pressure_rejected(self, pressure):
        with pytest.raises(DomainError, match="pressure"):
            AirConditions(pressure_pa=pressure)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf, -273.15, -300.0])
    def test_unphysical_temperature_rejected(self, temperature):
        with pytest.raises(DomainError, match="temperature"):
            AirConditions(temperature_c=temperature)

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, -5.0, 0.0])
    def test_non_finite_wavelength_rejected(self, wavelength):
        # The wavelength is an argument of the formulas, which reject it.
        for formula in AIR_FORMULAS:
            with pytest.raises(DomainError, match="^wavelength .* validity window"):
                AIR_FORMULAS[formula](AirConditions(), wavelength)
            with pytest.raises(DomainError, match="^wavelength must be finite and positive"):
                air_dispersion_coefficient(AirConditions(), formula, wavelength)

    @pytest.mark.parametrize("wavelength", [-5.0, 0.0, math.nan, math.inf])
    def test_bad_wavelength_to_omega_is_domain_error(self, wavelength):
        with pytest.raises(DomainError, match="wavelength"):
            omega_from_wavelength_nm(wavelength)

    @pytest.mark.parametrize("convert,quantity", [(omega_from_wavelength_nm, "wavelength 1e-320 nm"),
                                                  (wavelength_nm_from_omega,
                                                   "angular frequency 1e-320 rad/fs")])
    def test_conversion_beyond_float64_is_domain_error(self, convert, quantity):
        # 2 pi c / 1e-320 once returned inf.
        with pytest.raises(DomainError) as error:
            convert(1e-320)
        assert str(error.value) == f"{quantity} is too small: its conversion overflows float64"

    @pytest.mark.parametrize("wavelength", [300.0, 1800.0])
    def test_out_of_band_wavelength_raises_at_evaluation(self, wavelength):
        cond = AirConditions()
        with pytest.raises(DomainError):
            edlen_refractivity(cond, wavelength)
        with pytest.raises(DomainError):
            owens_refractivity(cond, wavelength)


class TestRefractivity:
    def test_edlen_standard_conditions(self):
        cond = AirConditions(15.0, 101325.0, 0.0)
        assert edlen_refractivity(cond) == pytest.approx(EDLEN_800_15C_STD, rel=1e-10)

    def test_edlen_scales_with_density(self):
        full = edlen_refractivity(AirConditions(15.0, 101325.0, 0.0))
        half = edlen_refractivity(AirConditions(15.0, 101325.0 / 2, 0.0))
        assert half / full == pytest.approx(0.5, abs=5e-4)

    def test_edlen_ignores_humidity(self):
        dry = edlen_refractivity(AirConditions(15.0, 101325.0, 0.0))
        humid = edlen_refractivity(AirConditions(15.0, 101325.0, 0.8))
        assert dry == humid

    def test_owens_dry_standard_conditions(self):
        cond = AirConditions(15.0, 101325.0, 0.0)
        assert owens_refractivity(cond) == pytest.approx(OWENS_800_15C_STD_DRY, rel=1e-10)

    def test_owens_with_humidity(self):
        cond = AirConditions(15.0, 101325.0, 0.20)
        assert owens_refractivity(cond) == pytest.approx(OWENS_800_15C_STD_RH20, rel=1e-10)

    @pytest.mark.parametrize("wavelength", [350.0, 450.0, 633.0, 800.0, 1064.0, 1700.0])
    def test_edlen_owens_dry_agreement(self, wavelength):
        cond = AirConditions(15.0, 101325.0, 0.0)
        edlen, owens = edlen_refractivity(cond, wavelength), owens_refractivity(cond, wavelength)
        assert abs(edlen - owens) < 1e-7

    def test_water_vapour_lowers_refractivity(self):
        dry = owens_refractivity(AirConditions(15.0, 101325.0, 0.0))
        saturated = owens_refractivity(AirConditions(15.0, 101325.0, 1.0))
        assert saturated < dry

    @pytest.mark.parametrize("temperature", [-257.14, -258.0, -273.0])
    def test_owens_at_or_below_buck_pole_rejected(self, temperature):
        # The temperature window stops these before the Buck vapour-pressure
        # term, whose denominator vanishes at -257.14 C, is evaluated.
        with pytest.raises(DomainError, match="^temperature .* outside the validity window"):
            owens_refractivity(AirConditions(temperature, 101325.0, 0.5))

    def test_owens_just_above_buck_pole_is_finite(self):
        # Just above the pole the window still rejects; the first accepted
        # temperature, the window's cold edge, gives a finite value.
        with pytest.raises(DomainError, match="^temperature .* outside the validity window"):
            owens_refractivity(AirConditions(-257.0, 101325.0, 0.5))
        cold_edge = AirConditions(TEMPERATURE_RANGE_C[0], 101325.0, 0.5)
        assert math.isfinite(owens_refractivity(cold_edge))

    def test_owens_vapour_pressure_above_total_pressure_rejected(self):
        # Saturated air at 50 C holds ~123 mbar of water vapour; the total is 10 mbar.
        with pytest.raises(DomainError,
                           match="^water-vapour partial pressure exceeds total pressure$"):
            owens_refractivity(AirConditions(50.0, 1000.0, 1.0))

    @pytest.mark.parametrize("temperature, pressure", [(-20.0, 1e200), (50.0, 1e200),
                                                       (15.0, 1e308)])
    def test_owens_non_finite_terms_rejected(self, temperature, pressure):
        # Huge pressures overflow the density factors inside both windows.
        with pytest.raises(DomainError) as error:
            owens_refractivity(AirConditions(temperature, pressure, 0.5))
        assert str(error.value) == (f"Owens refractivity overflows float64 at temperature_c = "
                                    f"{temperature:g}, pressure_pa = {pressure:g}, "
                                    "relative_humidity = 0.5")

    @pytest.mark.parametrize("refractivity,name", [(edlen_refractivity, "Edlen"),
                                                   (owens_refractivity, "Owens")])
    @pytest.mark.parametrize("pressure,leaves", [(1e308, "overflows"), (1e-320, "underflows")])
    def test_refractivity_beyond_float64_rejected(self, refractivity, name, pressure, leaves):
        # Edlén once returned inf at 1e308 Pa, and both formulas 0.0 at 1e-320 Pa.
        with pytest.raises(DomainError) as error:
            refractivity(AirConditions(pressure_pa=pressure))
        assert str(error.value) == (f"{name} refractivity {leaves} float64 at temperature_c = 15, "
                                    f"pressure_pa = {pressure:g}, relative_humidity = 0")


class TestAirDispersionRange:
    @pytest.mark.parametrize("formula", ["edlen", "owens"])
    def test_vacuum_like_pressure_rejected(self, formula):
        # The exact beta, ~1e-6 fs^2/cm per Pa, rounds to 0.0 here.
        pressure = 1e-320
        with pytest.raises(DomainError) as error:
            air_dispersion_coefficient(AirConditions(pressure_pa=pressure), formula)
        assert str(error.value) == (f"{formula} air dispersion coefficient underflows float64 "
                                    f"at temperature_c = 15, pressure_pa = {pressure:g}, "
                                    "relative_humidity = 0")

    @pytest.mark.parametrize("formula", ["edlen", "owens"])
    def test_near_vacuum_beta_is_positive(self, formula):
        # A finite difference of an index that rounds to exactly 1 once gave 0.0
        # here; the exact beta is ~1.05e-314 fs^2/cm, a subnormal in proportion
        # to the pressure.
        beta = air_dispersion_coefficient(AirConditions(pressure_pa=1e-308), formula)
        one_pascal = air_dispersion_coefficient(AirConditions(pressure_pa=1.0), formula)
        assert 0 < beta == pytest.approx(one_pascal * 1e-308, rel=1e-6)

    def test_non_finite_edlen_beta_rejected(self):
        # Edlén's density factor overflows, and with it the exact beta.
        with pytest.raises(DomainError) as error:
            air_dispersion_coefficient(AirConditions(pressure_pa=1e308), "edlen")
        assert str(error.value) == ("edlen air dispersion coefficient overflows float64 at "
                                    "temperature_c = 15, pressure_pa = 1e+308, "
                                    "relative_humidity = 0")

    @pytest.mark.parametrize("formula, temperature", [
        ("edlen", -273.0), ("owens", -257.0), ("edlen", -20.001), ("owens", 50.001),
    ])
    def test_temperature_outside_window_rejected(self, formula, temperature):
        # Without the window both formulas would return finite, positive betas
        # at the first two points, far outside the fits' range.
        with pytest.raises(DomainError, match="validity window"):
            air_dispersion_coefficient(AirConditions(temperature, 101325.0, 0.2), formula)

    @pytest.mark.parametrize("formula", ["edlen", "owens"])
    @pytest.mark.parametrize("temperature", TEMPERATURE_RANGE_C)
    def test_temperature_window_edges_accepted(self, formula, temperature):
        beta = air_dispersion_coefficient(AirConditions(temperature, 101325.0, 0.2), formula)
        assert 0 < beta < math.inf


_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494459")
_TWO_C_A = 2 * Fraction("2.99792458e-5") * (2 * _PI * Fraction("299.792458") / 1000)
"""2c a in exact arithmetic: c in cm/fs, and a = 2 pi c / 1000 nm maps sigma (1/um) to omega."""


def _exact_pole(b: str, a: str, sigma: Fraction) -> Fraction:
    """d^2/dsigma^2 of sigma * b/(a - sigma^2), exactly, from the published decimals."""
    b, a = Fraction(b), Fraction(a)
    return 2 * b * sigma * (3 * a + sigma * sigma) / (a - sigma * sigma) ** 3


def exact_beta(formula: str, conditions: AirConditions, wavelength_nm: float) -> Fraction:
    """beta = 1e-8 * density * G''(sigma) / (2 c a) of a formula in exact arithmetic, where
    n - 1 = 1e-8 * density * G(sigma) / sigma, at the float sigma = 1000/lambda.  Each density
    factor is the float the formula computes, by the formula's own float64 expression."""
    sigma = Fraction(1000.0 / wavelength_nm)
    t = conditions.temperature_c
    if formula == "edlen":
        p_torr = conditions.pressure_pa * _TORR_PER_PA
        density = (p_torr * (1.0 + p_torr * (0.817 - 0.0133 * t) * 1e-6)
                   / (720.775 * (1.0 + 0.0036610 * t)))
        curvature = Fraction(density) * (_exact_pole("2406030", "130", sigma)
                                         + _exact_pole("15997", "38.9", sigma))
    else:
        t_k = t + 273.15
        p_water = conditions.relative_humidity * _saturation_vapor_pressure_mbar(t)
        p_dry = conditions.pressure_pa * _MBAR_PER_PA - p_water
        density_dry = (p_dry / t_k) * (
            1.0 + p_dry * (57.90e-8 - 9.3250e-4 / t_k + 0.25844 / t_k**2))
        density_water = (p_water / t_k) * (
            1.0 + p_water * (1.0 + 3.7e-4 * p_water)
            * (-2.37321e-3 + 2.23366 / t_k - 710.792 / t_k**2 + 7.75141e4 / t_k**3))
        water = (6 * Fraction("58.058") * sigma - 20 * Fraction("0.71150") * sigma**3
                 + 42 * Fraction("0.08851") * sigma**5)
        curvature = (Fraction(density_dry) * (_exact_pole("683939.7", "130", sigma)
                                              + _exact_pole("4547.3", "38.9", sigma))
                     + Fraction(density_water) * water)
    return curvature * Fraction("1e-8") / _TWO_C_A


class TestExactAirDispersion:
    """beta of the built-in formulas is their exact second derivative, in closed form."""

    @pytest.mark.parametrize("formula", AIR_FORMULAS)
    @pytest.mark.parametrize("temperature", [-20.0, 15.0, 50.0])
    def test_within_four_ulps_of_the_exact_derivative(self, formula, temperature):
        # 4 ulps of relative precision, 4 * 2^-52: a 40-digit derivative put the
        # finite difference this replaced off by 1.1e-5 at 800 nm and 2.7e-4 at 1550 nm.
        for conditions in (AirConditions(temperature, 101325.0, 0.2),
                           AirConditions(temperature, 1.0, 0.0)):
            for wavelength in (350.0, 800.0, 1064.0, 1550.0, 1700.0):
                beta = air_dispersion_coefficient(conditions, formula, wavelength)
                exact = exact_beta(formula, conditions, wavelength)
                assert abs(Fraction(beta) - exact) <= 4 * sys.float_info.epsilon * exact, (
                    conditions, wavelength)

    @pytest.mark.parametrize("formula", AIR_FORMULAS)
    def test_agrees_with_finite_differences_at_800_nm(self, formula):
        # An independent route: beta_from_index at a step where it is accurate.
        omega0 = omega_from_wavelength_nm(800.0)
        difference = beta_from_index(air_index_function(REFERENCE_AIR, formula), omega0,
                                     step=3e-3 * omega0)
        assert air_dispersion_coefficient(REFERENCE_AIR, formula) == pytest.approx(
            difference, rel=1e-5)

    def test_matches_the_frozen_truths_to_the_digits_quoted(self):
        beta = air_dispersion_coefficient(AirConditions(15.0, 101325.0, 0.0), "edlen")
        assert beta == pytest.approx(BETA_EDLEN_800, rel=5e-10)
        assert reference_air_beta() == pytest.approx(BETA_OWENS_RH20_800, rel=5e-10)

    def test_no_program_path_differences_the_index(self, monkeypatch, tmp_path, capsys):
        # beta_from_index stays for user index models; the air laws and every
        # command that reads them take the closed form.
        def refuse(*args, **kwargs):
            raise AssertionError("beta_from_index called")

        monkeypatch.setattr(media, "beta_from_index", refuse)
        for formula in AIR_FORMULAS:
            assert air_dispersion_coefficient(REFERENCE_AIR, formula) > 0
        assert reference_air_beta(1064.0) > 0
        assert catalog_segment("air", 1.0).beta > 0
        for argv in (["media", "--material", "air"],
                     ["media", "--material", "air", "--formula", "owens", "--rh", "0.2"],
                     ["transition", "--sigma-phi", "3.7e11", "--B", "500"],
                     ["width", "--sigma-phi", "3.7e11", "--n", "100", "--path1", "air:1km"]):
            assert main([*argv, "--out-dir", str(tmp_path)]) == 0


class TestBetaFromIndex:
    def test_constant_index_gives_zero(self):
        omega0 = omega_from_wavelength_nm(800.0)
        beta = beta_from_index(lambda w: 1.000275, omega0)
        assert abs(beta) < 1e-6

    @given(st.floats(min_value=3e-4, max_value=3.0))
    @settings(max_examples=50)
    def test_quadratic_index_reproduces_analytic_value(self, curvature):
        # n = 1 + c (w - w0)^2 / w  =>  w * (n - 1) is exactly quadratic and
        # the dispersion coefficient is c / c_light.
        omega0 = omega_from_wavelength_nm(800.0)
        index = lambda w: 1.0 + curvature * (w - omega0) ** 2 / w
        beta = beta_from_index(index, omega0)
        assert beta == pytest.approx(curvature / C_CM_PER_FS, rel=1e-6)

    def test_edlen_air_dispersion(self):
        cond = AirConditions(15.0, 101325.0, 0.0)
        beta = beta_from_index(edlen_index_function(cond), omega_from_wavelength_nm(800.0))
        assert beta == pytest.approx(BETA_EDLEN_800, rel=1e-4)

    def test_result_stable_under_explicit_halved_step(self):
        cond = AirConditions(15.0, 101325.0, 0.0)
        omega0 = omega_from_wavelength_nm(800.0)
        index = edlen_index_function(cond)
        b1 = beta_from_index(index, omega0, step=1e-3 * omega0)
        b2 = beta_from_index(index, omega0, step=0.5e-3 * omega0)
        assert b2 == pytest.approx(b1, rel=1e-3)

    def test_tiny_step_raises_cancellation_diagnostic(self):
        cond = AirConditions(15.0, 101325.0, 0.0)
        omega0 = omega_from_wavelength_nm(800.0)
        with pytest.raises(CancellationError) as excinfo:
            beta_from_index(edlen_index_function(cond), omega0, step=1e-6 * omega0)
        assert excinfo.value.suggested_step > 1e-6 * omega0

    def test_fast_varying_index_raises_step_halving_diagnostic(self):
        # The cosine's period, pi/1000 rad/fs, is comparable to the default
        # step 2.35e-3 rad/fs, so halving the step changes the curvature.
        omega0 = 2.35
        with pytest.raises(CancellationError, match="not stable under step halving") as excinfo:
            beta_from_index(lambda w: 1.0 + 1e-4 * math.cos(2000.0 * w), omega0)
        assert excinfo.value.suggested_step == 1e-3 * omega0 / 4.0

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            beta_from_index(lambda w: 1.0, -1.0)
        with pytest.raises(DomainError):
            beta_from_index(lambda w: 1.0, 1.0, step=0.0)


class TestAirDispersionCoefficient:
    def test_edlen_beta_close_to_published(self):
        cond = AirConditions(15.0, 101325.0, 0.0)
        beta = air_dispersion_coefficient(cond, "edlen")
        assert abs(beta / 0.106 - 1.0) < 0.05

    def test_owens_beta_with_humidity_close_to_published(self):
        beta = air_dispersion_coefficient(AirConditions(15.0, 101325.0, 0.20), "owens")
        assert abs(beta / 0.103 - 1.0) < 0.05
        assert beta == pytest.approx(BETA_OWENS_RH20_800, rel=1e-4)

    def test_unknown_formula_rejected(self):
        with pytest.raises(DomainError):
            air_dispersion_coefficient(AirConditions(), "ciddor")


class TestEquivalentAirLength:
    def test_one_centimetre_of_silica(self):
        assert 21.6 <= equivalent_air_length(1.0) <= 26.4

    def test_zero(self):
        assert equivalent_air_length(0.0) == 0.0

    def test_four_metres_of_silica(self):
        assert 9.2e3 <= equivalent_air_length(400.0) <= 10.4e3

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            equivalent_air_length(-1.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, length):
        with pytest.raises(DomainError, match="finite and >= 0"):
            equivalent_air_length(length)

    def test_overflowing_length_rejected(self):
        with pytest.raises(DomainError, match="overflows float64"):
            equivalent_air_length(1e308)

    def test_proportional_to_length(self):
        assert equivalent_air_length(2.0) == pytest.approx(2 * equivalent_air_length(1.0))

    def test_is_the_air_length_of_the_silica_gdd(self):
        assert equivalent_air_length(3.0) == air_length_m(750.0, reference_air_beta())

    def test_air_length_divides_gdd_by_beta(self):
        # The expression the transition and media reports have always used.
        beta = reference_air_beta()
        assert air_length_m(500.0, beta) == 500.0 / beta / 100.0

    BAD_AIR_LENGTH_INPUTS = [
        (1.0, 0.0, "air_beta_fs2_per_cm = 0 is not finite and positive"),
        (1.0, -0.1, "air_beta_fs2_per_cm = -0.1 is not finite and positive"),
        (1.0, math.inf, "air_beta_fs2_per_cm = inf is not finite and positive"),
        (1.0, math.nan, "air_beta_fs2_per_cm = nan is not finite and positive"),
        (math.nan, 0.1, "gdd_fs2 = nan is not finite"),
        (-math.inf, 0.1, "gdd_fs2 = -inf is not finite"),
    ]

    @pytest.mark.parametrize("gdd,air_beta,message", BAD_AIR_LENGTH_INPUTS,
                             ids=[f"{gdd}-{beta}" for gdd, beta, _ in BAD_AIR_LENGTH_INPUTS])
    def test_air_length_needs_a_finite_gdd_and_positive_beta(self, gdd, air_beta, message):
        # A zero beta once raised ZeroDivisionError, and an infinite one gave 0 m.
        with pytest.raises(DomainError) as error:
            air_length_m(gdd, air_beta)
        assert str(error.value) == message

    def test_air_length_overflow_rejected(self):
        with pytest.raises(DomainError) as error:
            air_length_m(1e308, 1e-3)
        assert str(error.value) == ("air length overflows float64 at gdd_fs2 = 1e+308, "
                                    "air_beta_fs2_per_cm = 0.001")


class TestCatalog:
    def test_silica_entry(self):
        entry = material_catalog()["fused_silica"]
        assert entry.beta == 250.0
        assert entry.alpha == 0.0
        assert entry.note

    def test_vacuum_entry(self):
        entry = material_catalog()["vacuum"]
        assert entry.beta == 0.0

    def test_unknown_material(self):
        message = "unknown material 'unobtainium'; catalog has ['fused_silica', 'vacuum'] plus 'air'"
        for call in (lambda: resolve_material("unobtainium"),
                     lambda: catalog_segment("unobtainium", 1.0)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("name, material", [
        ("air", "air"), ("silica", "fused_silica"), ("fused_silica", "fused_silica"),
        ("vacuum", "vacuum"),
    ])
    def test_resolve_material(self, name, material):
        assert resolve_material(name) == material

    @pytest.mark.parametrize("length", [0.0, 1.0, 2400.0])
    def test_air_segment_is_reference_air(self, length):
        assert catalog_segment("air", length) == MediumSegment(
            "air", 0.0, reference_air_beta(), length)

    @pytest.mark.parametrize("length", [0.0, 1.0, 400.0])
    def test_silica_is_fused_silica(self, length):
        assert catalog_segment("silica", length) == catalog_segment("fused_silica", length)

    def test_catalog_is_immutable(self):
        with pytest.raises(TypeError):
            material_catalog()["x"] = None

    def test_reference_air_beta_is_owens_value(self):
        assert reference_air_beta() == pytest.approx(BETA_OWENS_RH20_800, rel=1e-4)

    @pytest.mark.parametrize("wavelength", [633.0, 1064.0, 1550.0])
    def test_reference_air_beta_at_a_wavelength(self, wavelength):
        assert reference_air_beta(wavelength) == air_dispersion_coefficient(
            AirConditions(15.0, 101325.0, 0.20), "owens", wavelength)

    def test_reference_air_beta_defaults_to_800_nm(self):
        assert reference_air_beta() == reference_air_beta(800.0) == air_dispersion_coefficient(
            REFERENCE_AIR, "owens")

    @pytest.mark.parametrize("wavelength", [633.0, 1550.0])
    def test_air_segment_at_a_wavelength(self, wavelength):
        assert catalog_segment("air", 2.0, wavelength) == MediumSegment(
            "air", 0.0, reference_air_beta(wavelength), 2.0)

    @pytest.mark.parametrize("name", ["silica", "fused_silica"])
    @pytest.mark.parametrize("wavelength", [633.0, 1550.0, 1e5])
    def test_dispersive_catalog_material_holds_at_800_nm_only(self, name, wavelength):
        message = f"^the catalog holds fused_silica at 800 nm only, not at {wavelength:g} nm$"
        for call in (lambda: resolve_material(name, wavelength),
                     lambda: catalog_segment(name, 1.0, wavelength)):
            with pytest.raises(DomainError, match=message):
                call()

    @pytest.mark.parametrize("wavelength", [350.0, 800.0, 1550.0, 1e5])
    def test_vacuum_holds_at_every_wavelength(self, wavelength):
        assert catalog_segment("vacuum", 3.0, wavelength) == catalog_segment("vacuum", 3.0)

    @pytest.mark.parametrize("name", ["vacuum", "silica", "air"])
    @pytest.mark.parametrize("wavelength", [math.nan, math.inf, -5.0, 0.0])
    def test_bad_carrier_rejected_for_every_material(self, name, wavelength):
        message = f"^wavelength must be finite and positive, got {wavelength} nm$"
        for call in (lambda: resolve_material(name, wavelength),
                     lambda: catalog_segment(name, 1.0, wavelength)):
            with pytest.raises(DomainError, match=message):
                call()


class TestAirFormulaTable:
    def test_index_functions_read_the_table(self):
        omega = omega_from_wavelength_nm(800.0)
        cond = AirConditions(relative_humidity=0.2)
        assert AIR_FORMULAS == {"edlen": edlen_refractivity, "owens": owens_refractivity}
        assert edlen_index_function(cond)(omega) == air_index_function(cond, "edlen")(omega)
        assert owens_index_function(cond)(omega) == air_index_function(cond, "owens")(omega)
        assert owens_index_function(cond)(omega) == 1.0 + owens_refractivity(cond)
        for formula, refractivity in AIR_FORMULAS.items():
            for wavelength in (351.0, 633.0, 1064.0, 1699.0):
                omega = omega_from_wavelength_nm(wavelength)
                assert air_index_function(cond, formula)(omega) == (
                    1.0 + refractivity(cond, wavelength_nm_from_omega(omega)))

    @pytest.mark.parametrize("formula", AIR_FORMULAS)
    def test_formula_checks_both_validity_windows(self, formula):
        refractivity = AIR_FORMULAS[formula]
        for temperature in (-20.001, 50.001, -258.0, 1e200, 1e308):
            with pytest.raises(DomainError, match="^temperature .* outside the validity window"):
                refractivity(AirConditions(temperature, 101325.0, 1.0), 800.0)
        for wavelength in (349.9, 1700.1):
            with pytest.raises(DomainError, match="^wavelength .* outside the validity window"):
                refractivity(AirConditions(15.0, 101325.0, 1.0), wavelength)
        for temperature in TEMPERATURE_RANGE_C:
            for wavelength in WAVELENGTH_RANGE_NM:
                value = refractivity(AirConditions(temperature, 101325.0, 1.0), wavelength)
                assert 0 < value < math.inf

    def test_unknown_formula_is_domain_error(self):
        with pytest.raises(DomainError, match="unknown air-index formula 'ciddor'"):
            air_dispersion_coefficient(AirConditions(), formula="ciddor")

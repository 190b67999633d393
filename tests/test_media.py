"""Tests for dispersive-media aggregation and the air-index formulas.

Frozen reference numbers were computed independently with mpmath (40
digits) from the published Edlén 1966 / Owens 1967 coefficients and a
high-order derivative for the dispersion coefficient.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtiming.constants import C_CM_PER_FS, omega_from_wavelength_nm
from qtiming.errors import CancellationError, DomainError
from qtiming.media import (
    AIR_FORMULAS,
    TEMPERATURE_RANGE_C,
    AirConditions,
    MediumSegment,
    PathPair,
    air_dispersion_coefficient,
    air_index_function,
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


class TestSegmentValidation:
    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            MediumSegment("bad", alpha=0.0, beta=1.0, length=-1.0)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(DomainError):
            MediumSegment("bad", alpha=math.nan, beta=0.0, length=1.0)
        with pytest.raises(DomainError):
            MediumSegment("bad", alpha=0.0, beta=math.inf, length=1.0)

    def test_negative_beta_allowed(self):
        seg = MediumSegment("anomalous", alpha=0.0, beta=-250.0, length=1.0)
        assert seg.beta == -250.0


class TestAirConditions:
    def test_defaults_are_standard_air(self):
        cond = AirConditions()
        assert cond.temperature_c == 15.0
        assert cond.pressure_pa == 101325.0

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

    @pytest.mark.parametrize("wavelength", [math.nan, math.inf])
    def test_non_finite_wavelength_rejected(self, wavelength):
        with pytest.raises(DomainError, match="wavelength"):
            AirConditions(wavelength_nm=wavelength)

    @pytest.mark.parametrize("wavelength", [-5.0, 0.0, math.nan, math.inf])
    def test_bad_wavelength_to_omega_is_domain_error(self, wavelength):
        with pytest.raises(DomainError, match="wavelength"):
            omega_from_wavelength_nm(wavelength)

    @pytest.mark.parametrize("wavelength", [300.0, 1800.0])
    def test_out_of_band_wavelength_raises_at_evaluation(self, wavelength):
        cond = AirConditions(wavelength_nm=wavelength)
        with pytest.raises(DomainError):
            edlen_refractivity(cond)
        with pytest.raises(DomainError):
            owens_refractivity(cond)


class TestRefractivity:
    def test_edlen_standard_conditions(self):
        cond = AirConditions(15.0, 101325.0, 0.0, 800.0)
        assert edlen_refractivity(cond) == pytest.approx(EDLEN_800_15C_STD, rel=1e-10)

    def test_edlen_scales_with_density(self):
        full = edlen_refractivity(AirConditions(15.0, 101325.0, 0.0, 800.0))
        half = edlen_refractivity(AirConditions(15.0, 101325.0 / 2, 0.0, 800.0))
        assert half / full == pytest.approx(0.5, abs=5e-4)

    def test_edlen_ignores_humidity(self):
        dry = edlen_refractivity(AirConditions(15.0, 101325.0, 0.0, 800.0))
        humid = edlen_refractivity(AirConditions(15.0, 101325.0, 0.8, 800.0))
        assert dry == humid

    def test_owens_dry_standard_conditions(self):
        cond = AirConditions(15.0, 101325.0, 0.0, 800.0)
        assert owens_refractivity(cond) == pytest.approx(OWENS_800_15C_STD_DRY, rel=1e-10)

    def test_owens_with_humidity(self):
        cond = AirConditions(15.0, 101325.0, 0.20, 800.0)
        assert owens_refractivity(cond) == pytest.approx(OWENS_800_15C_STD_RH20, rel=1e-10)

    @pytest.mark.parametrize("wavelength", [350.0, 450.0, 633.0, 800.0, 1064.0, 1700.0])
    def test_edlen_owens_dry_agreement(self, wavelength):
        cond = AirConditions(15.0, 101325.0, 0.0, wavelength)
        assert abs(edlen_refractivity(cond) - owens_refractivity(cond)) < 1e-7

    def test_water_vapour_lowers_refractivity(self):
        dry = owens_refractivity(AirConditions(15.0, 101325.0, 0.0, 800.0))
        saturated = owens_refractivity(AirConditions(15.0, 101325.0, 1.0, 800.0))
        assert saturated < dry

    @pytest.mark.parametrize("temperature", [-257.14, -258.0, -273.0])
    def test_owens_at_or_below_buck_pole_rejected(self, temperature):
        with pytest.raises(DomainError, match="pole"):
            owens_refractivity(AirConditions(temperature, 101325.0, 0.5, 800.0))

    def test_owens_just_above_buck_pole_is_finite(self):
        assert math.isfinite(owens_refractivity(AirConditions(-257.0, 101325.0, 0.5, 800.0)))

    @pytest.mark.parametrize("temperature, pressure", [(1e200, 101325.0), (1e308, 101325.0),
                                                       (15.0, 1e308)])
    def test_owens_non_finite_terms_rejected(self, temperature, pressure):
        with pytest.raises(DomainError, match="not finite"):
            owens_refractivity(AirConditions(temperature, pressure, 0.5, 800.0))


class TestAirDispersionRange:
    @pytest.mark.parametrize("formula", ["edlen", "owens"])
    def test_vacuum_like_pressure_rejected(self, formula):
        # The index rounds to exactly 1, so beta comes out as 0.0.
        with pytest.raises(DomainError, match="not finite and positive"):
            air_dispersion_coefficient(AirConditions(pressure_pa=1e-308), formula)

    def test_non_finite_edlen_beta_rejected(self):
        with pytest.raises(DomainError, match="not finite and positive"):
            air_dispersion_coefficient(AirConditions(temperature_c=1e308), "edlen")

    @pytest.mark.parametrize("formula, temperature", [
        ("edlen", -273.0), ("owens", -257.0), ("edlen", -20.001), ("owens", 50.001),
    ])
    def test_temperature_outside_window_rejected(self, formula, temperature):
        # Both formulas return finite, positive betas here (205.9 and 3.70
        # fs^2/cm at the first two points), far outside the fits' range.
        with pytest.raises(DomainError, match="validity window"):
            air_dispersion_coefficient(AirConditions(temperature, 101325.0, 0.2), formula)

    @pytest.mark.parametrize("formula", ["edlen", "owens"])
    @pytest.mark.parametrize("temperature", TEMPERATURE_RANGE_C)
    def test_temperature_window_edges_accepted(self, formula, temperature):
        beta = air_dispersion_coefficient(AirConditions(temperature, 101325.0, 0.2), formula)
        assert 0 < beta < math.inf


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
        cond = AirConditions(15.0, 101325.0, 0.0, 800.0)
        beta = beta_from_index(edlen_index_function(cond), omega_from_wavelength_nm(800.0))
        assert beta == pytest.approx(BETA_EDLEN_800, rel=1e-4)

    def test_result_stable_under_explicit_halved_step(self):
        cond = AirConditions(15.0, 101325.0, 0.0, 800.0)
        omega0 = omega_from_wavelength_nm(800.0)
        index = edlen_index_function(cond)
        b1 = beta_from_index(index, omega0, step=1e-3 * omega0)
        b2 = beta_from_index(index, omega0, step=0.5e-3 * omega0)
        assert b2 == pytest.approx(b1, rel=1e-3)

    def test_tiny_step_raises_cancellation_diagnostic(self):
        cond = AirConditions(15.0, 101325.0, 0.0, 800.0)
        omega0 = omega_from_wavelength_nm(800.0)
        with pytest.raises(CancellationError) as excinfo:
            beta_from_index(edlen_index_function(cond), omega0, step=1e-6 * omega0)
        assert excinfo.value.suggested_step > 1e-6 * omega0

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            beta_from_index(lambda w: 1.0, -1.0)
        with pytest.raises(DomainError):
            beta_from_index(lambda w: 1.0, 1.0, step=0.0)


class TestAirDispersionCoefficient:
    def test_edlen_beta_close_to_published(self):
        cond = AirConditions(15.0, 101325.0, 0.0, 800.0)
        beta = air_dispersion_coefficient(cond, "edlen")
        assert abs(beta / 0.106 - 1.0) < 0.05

    def test_owens_beta_with_humidity_close_to_published(self):
        beta = air_dispersion_coefficient(AirConditions(15.0, 101325.0, 0.20, 800.0), "owens")
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

    def test_proportional_to_length(self):
        assert equivalent_air_length(2.0) == pytest.approx(2 * equivalent_air_length(1.0))


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
        with pytest.raises(DomainError):
            catalog_segment("unobtainium", 1.0)

    def test_catalog_is_immutable(self):
        with pytest.raises(TypeError):
            material_catalog()["x"] = None

    def test_reference_air_beta_is_owens_value(self):
        assert reference_air_beta() == pytest.approx(BETA_OWENS_RH20_800, rel=1e-4)


class TestAirFormulaTable:
    def test_index_functions_read_the_table(self):
        omega = omega_from_wavelength_nm(800.0)
        cond = AirConditions(relative_humidity=0.2)
        assert AIR_FORMULAS == {"edlen": edlen_refractivity, "owens": owens_refractivity}
        assert edlen_index_function(cond)(omega) == air_index_function(cond, "edlen")(omega)
        assert owens_index_function(cond)(omega) == air_index_function(cond, "owens")(omega)
        assert owens_index_function(cond)(omega) == 1.0 + owens_refractivity(cond)

    def test_unknown_formula_is_domain_error(self):
        with pytest.raises(DomainError, match="unknown air-index formula 'ciddor'"):
            air_dispersion_coefficient(AirConditions(), formula="ciddor")

"""Tests for the closed-form Gaussian timing laws."""

import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtiming import constants, distributions, media, montecarlo, oracle
from qtiming.distributions import (
    StateKind,
    StateSpec,
    TimingDistribution,
    TimingVariable,
    asymptotic_width,
    classical_shot_noise,
    classical_width,
    density_at,
    gated_detector_distribution,
    quantum_classical_ratio,
    quantum_distribution,
    quantum_width,
    transition_photon_number,
    width_ratio,
)
from qtiming.constants import (
    omega_from_wavelength_nm,
    sigma_phi_from_rad_per_s,
    wavelength_nm_from_omega,
)
from qtiming.errors import DomainError
from qtiming.media import (
    MediumSegment,
    PathPair,
    air_length_m,
    catalog_segment,
    equivalent_air_length,
)
from qtiming.oracle import numeric_moments
from qtiming.spectral import GaussianSpectrum

SIGMA_PHI = 3.7e-4  # rad/fs


def bandwidth_error(sigma_phi):
    """The text of the bandwidth rule's DomainError."""
    return ("sigma_phi must be finite and positive with a finite, non-zero fourth power "
            f"and reciprocal, got {float(sigma_phi)} rad/fs")


@pytest.fixture
def spectrum():
    return GaussianSpectrum.from_si(3.7e11)


def pair(gdd1, gdd2, delay1=0.0, delay2=0.0):
    """Paths reduced to single segments with the requested aggregates."""
    return PathPair(
        [MediumSegment("m1", alpha=delay1, beta=gdd1, length=1.0)],
        [MediumSegment("m2", alpha=delay2, beta=gdd2, length=1.0)],
    )


sigma_phis = st.floats(min_value=1e-6, max_value=1e-2)
photon_numbers = st.floats(min_value=1.0, max_value=1e9)
gdd_values = st.floats(min_value=-1e6, max_value=1e6)


class TestQuantumWidth:
    def test_cancelled_dispersion_value(self):
        assert quantum_width(SIGMA_PHI, 7.0, 0.0) == pytest.approx(
            1.0 / (math.sqrt(2.0) * SIGMA_PHI * 7.0), rel=1e-15
        )

    def test_single_photon_no_dispersion_equals_packet_width(self, spectrum):
        assert quantum_width(spectrum.sigma_phi, 1, 0.0) == spectrum.intensity_width()

    def test_narrowing_is_exact(self, spectrum):
        for n in range(1, 11):
            assert quantum_width(spectrum.sigma_phi, n, 0.0) == spectrum.intensity_width() / n

    def test_sqrt_two_at_transition(self):
        n_t = transition_photon_number(SIGMA_PHI, 500.0)
        ratio = quantum_width(SIGMA_PHI, n_t, 500.0) / asymptotic_width(SIGMA_PHI, 500.0)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_large_n_limit(self):
        # 4 m of silica in one path; far above the transition the width is
        # pinned by dispersion alone.
        assert quantum_width(SIGMA_PHI, 1e9, 1e5) == pytest.approx(
            math.sqrt(2.0) * SIGMA_PHI * 1e5, rel=1e-12
        )

    def test_monotone_towards_asymptote(self):
        asym = asymptotic_width(SIGMA_PHI, 500.0)
        w10 = quantum_width(SIGMA_PHI, 10, 500.0)
        w100 = quantum_width(SIGMA_PHI, 100, 500.0)
        assert w10 > w100 > asym

    def test_zero_photons_rejected(self):
        with pytest.raises(DomainError):
            quantum_width(SIGMA_PHI, 0, 0.0)

    @given(sigma_phis, photon_numbers, gdd_values)
    def test_width_identity(self, sigma_phi, n, gdd):
        # sigma^2 * 2 s^2 N^2 == 1 + 4 s^4 N^2 gdd^2 to machine precision
        sigma = quantum_width(sigma_phi, n, gdd)
        lhs = sigma**2 * 2.0 * sigma_phi**2 * n**2
        rhs = 1.0 + 4.0 * sigma_phi**4 * n**2 * gdd**2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(sigma_phis, photon_numbers, st.floats(min_value=1e-6, max_value=1e6))
    def test_cancellation_invariance_is_bitwise(self, sigma_phi, n, c):
        assert quantum_width(sigma_phi, n, c + (-c)) == quantum_width(sigma_phi, n, 0.0)

    @given(
        sigma_phis,
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
    )
    def test_always_above_asymptote(self, sigma_phi, n, gdd):
        # Ranges keep the finite-N correction above float64 resolution, so
        # the strict ordering stays meaningful.
        assert quantum_width(sigma_phi, n, gdd) > asymptotic_width(sigma_phi, gdd)


class TestAsymptoticWidth:
    def test_zero_dispersion(self):
        assert asymptotic_width(SIGMA_PHI, 0.0) == 0.0

    def test_value(self):
        # sqrt(2) * 3.7e-4 * 500 fs, mpmath: 0.261629509...
        assert asymptotic_width(SIGMA_PHI, 500.0) == pytest.approx(0.261629509, rel=1e-9)

    @given(gdd_values)
    def test_sign_invariance(self, gdd):
        try:
            width = asymptotic_width(SIGMA_PHI, gdd)
        except DomainError as error:  # a subnormal GDD whose width underflows, of either sign
            assert "underflows" in str(error)
            with pytest.raises(DomainError, match="underflows"):
                asymptotic_width(SIGMA_PHI, -gdd)
            return
        assert width == asymptotic_width(SIGMA_PHI, -gdd)

    @pytest.mark.parametrize("args,message", [
        ((10.0, 1e308), "asymptotic width overflows float64 at sigma_phi = 10 rad/fs, "
                        "gdd_sum_fs2 = 1e+308"),
        ((math.inf, 1.0), bandwidth_error(math.inf)),
        ((1.0, math.nan), "gdd_sum_fs2 = nan is not finite"),
    ], ids=["overflow", "inf-sigma_phi", "nan-gdd"])
    def test_non_finite_result_is_domain_error(self, args, message):
        for kind in (float, np.float64):
            with pytest.raises(DomainError) as error:
                asymptotic_width(*map(kind, args))
            assert str(error.value) == message


class TestTransitionPhotonNumber:
    def test_one_centimetre_of_silica_in_each_path(self):
        # beta = 250 fs^2/cm on both sides: total 500 fs^2
        assert transition_photon_number(SIGMA_PHI, 500.0) == pytest.approx(7304.6019, rel=1e-6)

    def test_inverse_problem_at_n_100(self):
        # gdd for a transition at N = 100: 36 523 fs^2 (146 cm of silica
        # split over the two paths)
        gdd = 1.0 / (2.0 * SIGMA_PHI**2 * 100.0)
        assert gdd == pytest.approx(36523.0095, rel=1e-6)
        assert transition_photon_number(SIGMA_PHI, gdd) == pytest.approx(100.0, rel=1e-12)

    @given(st.floats(min_value=1e-2, max_value=1e6))
    def test_doubling_dispersion_halves_transition(self, gdd):
        assert transition_photon_number(SIGMA_PHI, 2 * gdd) == pytest.approx(
            transition_photon_number(SIGMA_PHI, gdd) / 2.0, rel=1e-12
        )

    def test_cancelled_dispersion_is_an_error(self):
        with pytest.raises(DomainError, match="fully cancelled"):
            transition_photon_number(SIGMA_PHI, 0.0)


class TestClassicalWidth:
    def test_no_dispersion_is_sqrt_two_packets(self, spectrum):
        # difference of two independent packets: sqrt(2) * packet width
        value = classical_width(spectrum.sigma_phi, 0.0, 0.0)
        assert value == pytest.approx(math.sqrt(2.0) * spectrum.intensity_width(), rel=1e-12)
        assert value == pytest.approx(1.0 / spectrum.sigma_phi, rel=1e-12)

    @given(sigma_phis, gdd_values, gdd_values)
    def test_no_cancellation_under_sign_flip(self, sigma_phi, g1, g2):
        assert classical_width(sigma_phi, g1, g2) == classical_width(sigma_phi, g1, -g2)

    def test_large_dispersion_below_quantum_asymptote(self):
        # split gdd: classical width tends to sigma_phi * gdd, a factor
        # sqrt(2) below the quantum large-N limit
        gdd = 1e9
        value = classical_width(SIGMA_PHI, gdd / 2, gdd / 2)
        assert value == pytest.approx(SIGMA_PHI * gdd, rel=1e-4)
        assert value < asymptotic_width(SIGMA_PHI, gdd)


class TestClassicalShotNoise:
    def test_single_photon(self):
        assert classical_shot_noise(3.0, 1) == 3.0

    def test_hundred_photons(self):
        assert classical_shot_noise(3.0, 100) == pytest.approx(0.3)

    def test_strictly_decreasing(self):
        values = [classical_shot_noise(1.0, n) for n in (1, 4, 16, 64)]
        assert values == sorted(values, reverse=True)
        assert values[0] / values[-1] == pytest.approx(8.0)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            classical_shot_noise(1.0, 0)

    @pytest.mark.parametrize("args,message", [
        ((-1.0, 1.0), "sigma_t_fs = -1 is not finite and positive"),
        ((math.nan, 1.0), "sigma_t_fs = nan is not finite and positive"),
        ((math.inf, 1.0), "sigma_t_fs = inf is not finite and positive"),
        ((1.0, math.inf), "N = inf is not finite and positive"),
        ((1e300, 1e-320), "classical shot noise overflows float64 at sigma_t_fs = 1e+300, "
                          "N = 9.99989e-321"),
    ], ids=["negative-sigma_t", "nan-sigma_t", "inf-sigma_t", "inf-N", "overflow"])
    def test_invalid_input_or_overflow_is_domain_error(self, args, message):
        for route in (lambda x: x, np.float64, lambda x: np.array([1.0, x])):
            with pytest.raises(DomainError) as error:
                classical_shot_noise(*map(route, args))
            assert str(error.value) == message


class TestArrayInputs:
    """The closed forms take arrays; scalars still give Python floats."""

    # The grids of the fig2 (scan) and fig3 (surface) presets.
    FIG2_N = np.logspace(0.0, 6.0, 121)
    FIG3_N, FIG3_X = np.meshgrid(np.logspace(0.0, 4.0, 33), np.linspace(0.0, 200.0, 41),
                                 indexing="ij")

    def test_fig2_grid_matches_scalar_loop(self):
        gdd, sigma_t = 1.0e5, classical_width(SIGMA_PHI, 1.0e5, 0.0)
        assert np.array_equal(
            quantum_width(SIGMA_PHI, self.FIG2_N, gdd),
            [quantum_width(SIGMA_PHI, n, gdd) for n in self.FIG2_N.tolist()])
        assert np.array_equal(
            classical_shot_noise(sigma_t, self.FIG2_N),
            [classical_shot_noise(sigma_t, n) for n in self.FIG2_N.tolist()])

    def test_fig3_grid_matches_scalar_loop(self):
        n, gdd = self.FIG3_N.ravel(), 250.0 * self.FIG3_X.ravel()
        pairs = list(zip(n.tolist(), gdd.tolist()))
        assert np.array_equal(quantum_width(SIGMA_PHI, n, 2.0 * gdd),
                              [quantum_width(SIGMA_PHI, a, 2.0 * g) for a, g in pairs])
        sigma_t = classical_width(SIGMA_PHI, gdd, gdd)
        assert np.array_equal(sigma_t, [classical_width(SIGMA_PHI, g, g) for _, g in pairs])
        assert np.array_equal(
            classical_shot_noise(sigma_t, n),
            [classical_shot_noise(t, a) for t, (a, _) in zip(sigma_t.tolist(), pairs)])

    def test_scalar_call_returns_float(self):
        assert type(quantum_width(SIGMA_PHI, 10, 500.0)) is float
        assert type(classical_width(SIGMA_PHI, 250.0, -250.0)) is float
        assert type(classical_shot_noise(3.0, 4)) is float

    # A scalar computes with math, an array with numpy: the same overflow
    # must raise the same text on both routes.  Each width itself leaves
    # float64; inputs is (sigma_phi, *array-capable inputs).
    @pytest.mark.parametrize("law,inputs,message", [
        (quantum_width, (SIGMA_PHI, 1e-306, 0.0),
         "quantum width overflows float64 at sigma_phi = 0.00037 rad/fs, "
         "N = 1e-306, gdd_sum_fs2 = 0"),
        (classical_width, (1e76, 1e300, 0.0),
         "classical variance overflows float64 at sigma_phi = 1e+76 rad/fs, "
         "gdd_path1_fs2 = 1e+300, gdd_path2_fs2 = 0"),
        (classical_width, (1e76, 1e300, 1e300),
         "classical variance overflows float64 at sigma_phi = 1e+76 rad/fs, "
         "gdd_path1_fs2 = 1e+300, gdd_path2_fs2 = 1e+300"),
    ])
    def test_scalar_and_array_overflow_raise_the_same_text(self, law, inputs, message):
        sigma_phi, *inputs = inputs
        with pytest.raises(DomainError) as scalar:
            law(sigma_phi, *inputs)
        with pytest.raises(DomainError) as array:
            law(sigma_phi, *(np.array([x]) for x in inputs))
        assert str(scalar.value) == str(array.value) == message

    @pytest.mark.parametrize("gdd,outcome", [
        (1e-300, 3.6523009495982476e+306),
        (1e-310, "transition photon number overflows float64 at sigma_phi = 0.00037 rad/fs, "
                 "gdd_sum_fs2 = 1e-310"),
        # The denominator underflows to zero.
        (-5e-324, "transition photon number overflows float64 at sigma_phi = 0.00037 rad/fs, "
                  "gdd_sum_fs2 = -4.94066e-324"),
        (0.0, "no transition: dispersion fully cancelled (gdd_sum = 0)"),
    ])
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_transition_at_vanishing_dispersion(self, gdd, outcome, kind):
        if isinstance(outcome, float):
            n_t = transition_photon_number(SIGMA_PHI, kind(gdd))
            assert type(n_t) is float and n_t == outcome
        else:
            with pytest.raises(DomainError) as error:
                transition_photon_number(SIGMA_PHI, kind(gdd))
            assert str(error.value) == outcome

    @pytest.mark.parametrize("kind", [int, np.float64])
    def test_int_and_numpy_scalars_match_array_bits(self, kind):
        def same(scalar, array):
            assert type(scalar) is float
            assert np.array([scalar]).view(np.uint64) == array.view(np.uint64)

        same(quantum_width(SIGMA_PHI, kind(10), kind(500)),
             quantum_width(SIGMA_PHI, np.array([10.0]), np.array([500.0])))
        same(classical_width(SIGMA_PHI, kind(250), kind(-250)),
             classical_width(SIGMA_PHI, np.array([250.0]), np.array([-250.0])))
        same(classical_shot_noise(kind(3), kind(7)),
             classical_shot_noise(np.array([3.0]), np.array([7.0])))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, 2e12])
    def test_array_with_photon_number_outside_the_domain_rejected(self, bad):
        n = np.array([1.0, 10.0, bad])
        named = re.escape(f"N = {bad:g} is ")
        with pytest.raises(DomainError, match=named):
            quantum_width(SIGMA_PHI, n, 500.0)
        with pytest.raises(DomainError, match=named):
            classical_shot_noise(1.0, n)


@pytest.mark.parametrize("law,args,message", [
    (quantum_width, (1.0, math.nan), "gdd_sum_fs2 = nan is not finite"),
    (quantum_width, (math.nan, 1.0), "N = nan is not finite and positive"),
    (classical_width, (1.0, -math.inf), "gdd_path2_fs2 = -inf is not finite"),
    (transition_photon_number, (math.nan,), "gdd_sum_fs2 = nan is not finite"),
])
def test_nan_input_is_named_not_finite(law, args, message):
    # A NaN input once read as an overflow ("... overflows float64 at ...").
    for route in (lambda x: x, np.float64, np.atleast_1d):
        if law is transition_photon_number and route is np.atleast_1d:
            continue  # scalars only
        with pytest.raises(DomainError) as error:
            law(1e-4, *map(route, args))
        assert str(error.value) == message


class TestBandwidthOverflow:
    """A sigma_phi whose square, or whose curvature's square, would leave float64.

    Python's ``**`` would raise OverflowError there; the bandwidth rule
    rejects such a sigma_phi first, with the DomainError of GaussianSpectrum.
    """

    @pytest.mark.parametrize("law,args", [
        (classical_width, (1e-100, 0.0, 0.0)),
        (classical_width, (1e160, 1.0, 1.0)),
        # sigma_phi**2 underflows to zero, so the curvature is beyond float64.
        (classical_width, (1e-200, 0.0, 0.0)),
        (quantum_width, (1e160, 1.0, 0.0)),
        (transition_photon_number, (1e160, 1.0)),
    ])
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_domain_error_not_overflow_error(self, law, args, kind):
        with pytest.raises(DomainError) as error:
            law(kind(args[0]), *args[1:])
        assert str(error.value) == bandwidth_error(args[0])

    def test_array_inputs_raise_the_same_text(self):
        with pytest.raises(DomainError) as error:
            quantum_width(1e160, np.array([1.0, 2.0]), 0.0)
        assert str(error.value) == bandwidth_error(1e160)
        with pytest.raises(DomainError) as error:
            classical_width(1e-100, np.zeros(2), np.zeros(2))
        assert str(error.value) == bandwidth_error(1e-100)


class TestFloat64Edges:
    """A law whose exact value is positive never returns 0.0, and one that leaves float64 raises."""

    @pytest.mark.parametrize("law,args,message", [
        (classical_shot_noise, (5e-324, 4.0),
         "classical shot noise underflows float64 at sigma_t_fs = 4.94066e-324, N = 4"),
        (transition_photon_number, (1e70, 1e300),
         "transition photon number underflows float64 at sigma_phi = 1e+70 rad/fs, "
         "gdd_sum_fs2 = 1e+300"),
        (asymptotic_width, (1e-70, 1e-300),
         "asymptotic width underflows float64 at sigma_phi = 1e-70 rad/fs, gdd_sum_fs2 = 1e-300"),
    ], ids=["classical_shot_noise", "transition_photon_number", "asymptotic_width"])
    def test_positive_law_underflow_is_domain_error(self, law, args, message):
        for kind in (float, np.float64):
            with pytest.raises(DomainError) as error:
                law(*map(kind, args))
            assert str(error.value) == message

    def test_array_underflow_names_the_element(self):
        with pytest.raises(DomainError) as error:
            classical_shot_noise(np.array([1.0, 5e-324]), np.array([1.0, 4.0]))
        assert str(error.value) == ("classical shot noise underflows float64 at "
                                    "sigma_t_fs = 4.94066e-324, N = 4")

    @pytest.mark.parametrize("route", [float, np.atleast_1d], ids=["scalar", "array"])
    def test_widths_whose_squares_overflow_are_refused(self, route):
        # The dispersion phase's square, or the classical variance, leaves float64:
        # the laws name that quantity rather than return a width near sqrt(2) sigma_phi |D|.
        with pytest.raises(DomainError) as error:
            quantum_width(SIGMA_PHI, route(1e12), route(1e150))
        assert str(error.value) == ("quantum dispersion phase squared overflows float64 at "
                                    "sigma_phi = 0.00037 rad/fs, N = 1e+12, gdd_sum_fs2 = 1e+150")
        with pytest.raises(DomainError) as error:
            classical_width(SIGMA_PHI, route(1e160), route(0.0))
        assert str(error.value) == ("classical variance overflows float64 at sigma_phi = "
                                    "0.00037 rad/fs, gdd_path1_fs2 = 1e+160, gdd_path2_fs2 = 0")

    def test_quantum_broadening_keeps_its_bits_up_to_the_refusal(self):
        # From |p| = 2^26 up to where p*p overflows, the width has the bits of the
        # plain sqrt(1 + p*p) form; an array with a phase beyond is refused, and
        # the refusal names its first such element.
        rng = np.random.default_rng(2718)
        edge = math.sqrt(sys.float_info.max)
        size = 100_000
        n = 10.0 ** rng.uniform(0.0, 6.0, size)
        phase = np.concatenate([2.0 ** rng.uniform(26.0, math.log2(edge), size - 4),
                                [2.0**27, np.nextafter(2.0**27, 0.0), edge,
                                 np.nextafter(edge, 0.0)]])
        gdd = rng.choice([-1.0, 1.0], size) * phase / (2.0 * SIGMA_PHI**2 * n)
        p = 2.0 * SIGMA_PHI**2 * n * gdd  # the law's own phase
        with np.errstate(over="ignore"):
            plain = np.sqrt(1.0 + p * p) * (1.0 / (math.sqrt(2.0) * SIGMA_PHI) / n)
        finite = np.isfinite(plain)
        assert finite.sum() > size // 2 and np.abs(p[finite]).max() > 2.0**511
        new = quantum_width(SIGMA_PHI, n[finite], gdd[finite])
        assert np.array_equal(new.view(np.uint64), plain[finite].view(np.uint64))
        scalars = [quantum_width(SIGMA_PHI, a, g)
                   for a, g in zip(n[finite][:2000].tolist(), gdd[finite][:2000].tolist())]
        assert np.array_equal(np.array(scalars).view(np.uint64), new[:2000].view(np.uint64))
        first = np.flatnonzero(~finite)[0]
        with pytest.raises(DomainError) as error:
            quantum_width(SIGMA_PHI, n, gdd)
        assert str(error.value) == (f"quantum dispersion phase squared overflows float64 at "
                                    f"sigma_phi = 0.00037 rad/fs, N = {n[first]:g}, "
                                    f"gdd_sum_fs2 = {gdd[first]:g}")

    def test_quantum_phase_whose_square_overflows_is_refused(self):
        # Where p*p overflows, the width is refused on both routes, tiny GDDs
        # included: by the N rule above MAX_PHOTON_NUMBER, by the phase's square below.
        rng = np.random.default_rng(29)
        checked = 0
        draws = rng.uniform((-77.0, 0.0, 512.0), (76.0, 300.0, 1023.9), (3000, 3)).tolist()
        for log_sigma, log_n, log2_phase in draws:  # Python floats: inf without a warning
            sigma_phi, n = 10.0**log_sigma, 10.0**log_n
            gdd = 2.0**log2_phase / (2.0 * sigma_phi**2 * n)
            p = 2.0 * sigma_phi**2 * n * gdd
            if not (p * p == math.inf and 0 < abs(gdd) < math.inf):
                continue
            checked += 1
            named = ("quantum dispersion phase squared overflows" if n <= 1e12
                     else f"N = {n:g} is above the supported bound 1e+12")
            for route in (float, np.atleast_1d):
                with pytest.raises(DomainError) as error:
                    quantum_width(sigma_phi, route(n), route(gdd))
                assert str(error.value).startswith(named)
        assert checked > 1000

    @pytest.mark.parametrize("sigma_phi,gdd1,gdd2", [
        (SIGMA_PHI, 1e160, 0.0), (SIGMA_PHI, -1e308, 1e308), (SIGMA_PHI, 1e155, 3e154),
        (1.0, 1e154, 0.0), (1e-77, 1e300, -1e200), (1e76, 1e160, 1e159), (1e70, 5e-324, 1e237),
    ])
    def test_classical_width_beyond_float64_is_refused(self, sigma_phi, gdd1, gdd2):
        # Once rescued widths: the exact variance, or its numerator 2c^2 + D1^2 + D2^2
        # (c = 1/(2 sigma_phi^2)), leaves float64, and both routes name the variance.
        curvature = 1 / (2 * Fraction(sigma_phi) ** 2)
        numerator = 2 * curvature**2 + Fraction(gdd1) ** 2 + Fraction(gdd2) ** 2
        assert max(numerator, numerator / curvature) > sys.float_info.max
        for route in (float, np.atleast_1d):
            with pytest.raises(DomainError) as error:
                classical_width(sigma_phi, route(gdd1), route(gdd2))
            assert str(error.value) == (
                f"classical variance overflows float64 at sigma_phi = {sigma_phi:g} rad/fs, "
                f"gdd_path1_fs2 = {gdd1:g}, gdd_path2_fs2 = {gdd2:g}")

    @pytest.mark.parametrize("sigma_phi,n,gdd", [
        (7.581734523184429e+74, 2.0851827966479865e+246, -3.9636097517534676e-150),
        (1.3714974818664277e+61, 1.7806080815474026e+261, -788405584693.2864),
        (7.061621976613615e+30, 7.881761223206485e+289, -7.356171937721178e-89),
    ])
    def test_quantum_width_with_subnormal_packet_share_is_refused(self, sigma_phi, n, gdd):
        # Once rescued widths: g/N = 1/(sqrt(2) sigma_phi N) is subnormal, which takes
        # an N far above MAX_PHOTON_NUMBER, so the N rule refuses them on both routes.
        assert 0 < 1.0 / (math.sqrt(2.0) * sigma_phi) / n < sys.float_info.min
        for route in (float, np.atleast_1d):
            with pytest.raises(DomainError) as error:
                quantum_width(sigma_phi, route(n), route(gdd))
            assert str(error.value) == f"N = {n:g} is above the supported bound 1e+12"


def exact_width(variance: Fraction) -> float:
    """The square root of an exact variance, to 60 digits, rounded to float64."""
    with localcontext() as context:
        context.prec = 60
        return float((Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt())


def log_uniform(low, high, signed=False):
    """Floats whose magnitude is log-uniform on [low, high], of either sign if ``signed``."""
    magnitudes = st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)
    if not signed:
        return magnitudes
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitudes).map(lambda t: t[0] * t[1])


# The width laws' bound in units of 2^-52: the worst of 20,000 draws was 2.67.
WIDTH_BOUND = 4


@settings(max_examples=400, deadline=None)
@given(sigma_phi=log_uniform(1e-77, 1e76), n=log_uniform(0.1, 1e12),
       gdd1=log_uniform(1e-320, 1e308, signed=True), gdd2=log_uniform(1e-320, 1e308, signed=True))
def test_widths_are_exact_or_refused(sigma_phi, n, gdd1, gdd2):
    # Each width is within WIDTH_BOUND x 2^-52 of the root of its exact rational variance, on
    # both routes, or is refused because a quantity it forms leaves float64: the
    # dispersion phase's square p^2, or the classical variance or its numerator
    # 2c^2 + D1^2 + D2^2 (c = 1/(2 sigma_phi^2)), which is c times the variance.
    s, big_n, d1, d2 = map(Fraction, (sigma_phi, n, gdd1, gdd2))
    phase = 2 * s**2 * big_n * d1
    curvature = 1 / (2 * s**2)
    cases = [
        (quantum_width, (n, gdd1), phase**2, (1 + phase**2) / (2 * s**2 * big_n**2),
         "quantum dispersion phase squared"),
        (classical_width, (gdd1, gdd2), 2 * curvature**2 + d1**2 + d2**2,
         2 * curvature + (d1**2 + d2**2) / curvature, "classical variance"),
    ]
    edge = Fraction(sys.float_info.max) / 2
    for law, inputs, squares, variance, quantity in cases:
        for route in (float, np.atleast_1d):
            try:
                width = law(sigma_phi, *map(route, inputs))
            except DomainError as error:
                assert str(error).startswith(f"{quantity} overflows float64")
                assert max(squares, variance) > edge
                continue
            exact = exact_width(variance)
            width = float(np.atleast_1d(width)[0])
            assert abs(width - exact) <= WIDTH_BOUND * sys.float_info.epsilon * exact


def derived_law_errors(sigma_phi, n, gdd1, gdd2, sigma_t) -> dict[str, float]:
    """Each derived law's largest error over its routes, against its exact value.

    The error is in units of 2^-52 of the exact value, or of 2^-1074 where that
    lies below the normal range.  A law may instead refuse, but only if the
    quantity its refusal names has an exact value beyond float64 / 2 (it
    overflows) or below the normal range (it underflows).
    """
    s, big_n, d1, d2, st = map(Fraction, (sigma_phi, n, gdd1, gdd2, sigma_t))
    curvature = 1 / (2 * s**2)
    classical = 2 * curvature + (d1**2 + d2**2) / curvature
    phase = 2 * s**2 * big_n * (d1 + d2)
    with localcontext() as context:
        context.prec = 60

        def value(exact: Fraction) -> Decimal:
            return Decimal(exact.numerator) / Decimal(exact.denominator)

        shot_noise = value(st**2 / big_n).sqrt()
        ratio = value((1 + phase**2) / (classical * big_n / curvature))
        both, scalar = (float, np.atleast_1d), (float,)
        cases = [
            # (law, its scalar arguments, the rest, their routes, exact value, refusals)
            (classical_shot_noise, (), (sigma_t, n), both, shot_noise, {}),
            (asymptotic_width, (sigma_phi,), (gdd1,), scalar, value(2 * s**2 * d1**2).sqrt(), {}),
            (transition_photon_number, (sigma_phi,), (gdd1,), scalar,
             value(curvature / abs(d1)), {}),
            (width_ratio, (sigma_phi,), (n, gdd1, gdd2), both, ratio.sqrt(), {
                "quantum dispersion phase squared": value(phase**2),
                "gdd_sum_fs2 = ": value(abs(d1 + d2)),
                "classical variance": value(max(2 * curvature**2 + d1**2 + d2**2, classical)),
                "classical shot noise": value(classical / big_n).sqrt(),
            }),
        ]
        errors = {}
        for law, fixed, args, routes, exact, refusals in cases:
            refusals = refusals or {law.__name__.replace("_", " "): exact}
            errors[law.__name__] = 0.0
            for route in routes:
                try:
                    got = float(np.atleast_1d(law(*fixed, *map(route, args)))[0])
                except DomainError as error:
                    named = [quantity for name, quantity in refusals.items()
                             if str(error).startswith(name)]
                    assert named, str(error)
                    if "underflows" in str(error):
                        assert named[0] < Decimal(sys.float_info.min)
                    else:
                        assert named[0] > Decimal(sys.float_info.max) / 2
                    continue
                scale = max(exact, Decimal(sys.float_info.min)) * Decimal(sys.float_info.epsilon)
                errors[law.__name__] = max(errors[law.__name__],
                                           float(abs(Decimal(got) - exact) / scale))
    return errors


# Each law's bound in units of 2^-52: the largest error that 500,000 draws of
# this sweep's domain gave (both routes where the law takes arrays), rounded up
# to a half unit.  Largest errors: shot noise 0.96, asymptotic width 1.25,
# transition photon number 2.17 (2.38 over 100,000 draws whose 2 sigma_phi^2 |D|
# is subnormal), width ratio 3.12.
DERIVED_LAW_BOUNDS = {
    "classical_shot_noise": 1.0,
    "asymptotic_width": 1.5,
    "transition_photon_number": 2.5,
    "width_ratio": 3.5,
}


@settings(max_examples=400, deadline=None)
@given(sigma_phi=log_uniform(1e-77, 1e76), n=log_uniform(0.1, 1e12),
       gdd1=log_uniform(1e-320, 1e308, signed=True), gdd2=log_uniform(1e-320, 1e308, signed=True),
       sigma_t=log_uniform(1e-320, 1e308))
def test_derived_laws_are_exact_or_refused(sigma_phi, n, gdd1, gdd2, sigma_t):
    errors = derived_law_errors(sigma_phi, n, gdd1, gdd2, sigma_t)
    for law, bound in DERIVED_LAW_BOUNDS.items():
        assert errors[law] <= bound, law


# 2 pi to 67 digits, beyond the 60 the sweep's context keeps: the density's normaliser.
TWO_PI = Decimal("6.283185307179586476925286766559005768394338798750211641949889184615")
# density_at's bound in units of 2^-52 is DENSITY_BOUND[0] + DENSITY_BOUND[1] z^2, with
# z = (tau - mean) / sigma.  np.exp turns an error d in its argument z^2 / 2 into a
# relative error d, and the float64 z^2 / 2 carries up to 5 roundings of 2^-53 (the
# difference, the division, the square), so up to 1.25 z^2 x 2^-52; the constant
# covers exp's own rounding and the normaliser's.  Over 250,000 draws of this sweep's
# domain the worst error was 0.87 of the bound, and 1.49 x 2^-52 near z = 0.
DENSITY_BOUND = (2.0, 1.25)


@settings(max_examples=400, deadline=None)
@given(sigma=log_uniform(1e-3, 1e6),
       mean=st.one_of(st.just(0.0), log_uniform(1e-3, 1e7, signed=True)),
       zs=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=16))
def test_density_is_within_its_bound(sigma, mean, zs):
    dist = TimingDistribution(TimingVariable.MEAN_TIME_DIFFERENCE, mean=mean, sigma=sigma)
    taus = [mean + z * sigma for z in zs]
    on_array = density_at(dist, np.array(taus)).tolist()
    with localcontext() as context:
        context.prec = 60
        for tau, got_array in zip(taus, on_array):
            z = (Fraction(tau) - Fraction(mean)) / Fraction(sigma)
            z = Decimal(z.numerator) / Decimal(z.denominator)
            exact = (-z * z / 2).exp() / (Decimal(sigma) * TWO_PI.sqrt())
            bound = Decimal(DENSITY_BOUND[0]) + Decimal(DENSITY_BOUND[1]) * z * z
            for got in (density_at(dist, tau), got_array):
                assert abs(Decimal(got) - exact) <= bound * Decimal(sys.float_info.epsilon) * exact


def test_readme_exactness_table_matches_the_sweeps():
    # README's contract table states the bounds these sweeps check, and
    # TestExactAirDispersion's 4 x 2^-52 for air's beta.
    bounds = {"quantum_width": f"{WIDTH_BOUND:g}", "classical_width": f"{WIDTH_BOUND:g}",
              **{law: f"{bound:g}" for law, bound in DERIVED_LAW_BOUNDS.items()},
              "density_at": "{:g} + {:g} z²".format(*DENSITY_BOUND),
              "air_dispersion_coefficient": "4"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", readme, flags=re.MULTILINE)
    assert {law: bound for law, bound in rows if law in bounds} == bounds


@pytest.mark.parametrize("module", [distributions, media, montecarlo, oracle],
                         ids=lambda module: module.__name__)
def test_float64_rules_have_one_home(module):
    # Every law applies the rules of qtiming.constants; a private copy would drift.
    assert module._check_finite is constants._check_finite
    rule = constants._finite_or_raise
    assert getattr(module, "_finite_or_raise", rule) is rule


@pytest.mark.parametrize("law,args", [
    (quantum_width, (10.0, 500.0)),
    (asymptotic_width, (500.0,)),
    (transition_photon_number, (500.0,)),
    (classical_width, (250.0, 250.0)),
], ids=["quantum_width", "asymptotic_width", "transition_photon_number", "classical_width"])
@pytest.mark.parametrize("sigma_phi", [0.0, -1.0, math.nan])
def test_non_positive_sigma_phi_rejected(law, args, sigma_phi):
    for kind in (float, np.float64):
        with pytest.raises(DomainError) as error:
            law(kind(sigma_phi), *args)
        assert str(error.value) == bandwidth_error(sigma_phi)


class TestPlancherelMoments:
    """The widths from the oracle's Plancherel moments of the raw integrand, with no closed form.

    Quantum: the anti-correlated state at (N, D), D split over the two paths.
    Classical: one pulse per path, each a one-photon state with that path's
    whole GDD in path 1 and an empty path 2, so b_k = gdd_k sigma_phi^2; the
    difference's variance is the sum of the two.
    """

    SPECTRUM = GaussianSpectrum(SIGMA_PHI)
    # Total GDD of fig2 (400 cm of silica in one path), fs^2.
    FIG2_GDD = PathPair([catalog_segment("fused_silica", 400.0)], []).coefficients()[1]

    @classmethod
    def quantum(cls, n, gdd_sum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, n)
        return numeric_moments(state, cls.SPECTRUM, PathPair.symmetric(gdd_sum))[1]

    @classmethod
    def pulse_width(cls, gdd):
        """Width of one pulse through ``gdd``: a one-photon state, with path 2 empty."""
        path = PathPair([MediumSegment("pulse", alpha=0.0, beta=gdd, length=1.0)], [])
        return numeric_moments(StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1), cls.SPECTRUM, path)[1]

    @classmethod
    def classical(cls, gdd1, gdd2):
        return math.hypot(cls.pulse_width(gdd1), cls.pulse_width(gdd2))

    def test_quantum_width_at_every_fig2_row(self):
        n_values = TestArrayInputs.FIG2_N
        widths = quantum_width(SIGMA_PHI, n_values, self.FIG2_GDD)
        expected = [self.quantum(n, self.FIG2_GDD) for n in n_values.tolist()]
        # The rows reach the plateau, b up to 1.37e4.
        assert n_values[-1] * self.FIG2_GDD * SIGMA_PHI**2 > 1e4
        np.testing.assert_allclose(widths, expected, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("gdd1,gdd2", [
        *((250.0 * x, 250.0 * x) for x in TestArrayInputs.FIG3_X[0].tolist()),
        (250.0, -250.0), (1.0e4, -2.5e3), (-5.0e4, 1.0e5),
        # Fig3's GDD adds at most 2e-4 to the variance; here dispersion dominates.
        (1.0e7, -1.0e7), (-5.0e8, 2.0e8),
    ])
    def test_classical_width(self, gdd1, gdd2):
        assert classical_width(SIGMA_PHI, gdd1, gdd2) == pytest.approx(
            self.classical(gdd1, gdd2), rel=1e-6)

    def test_fig3_ratio_surface(self):
        # 33 x 41: N down the rows, x cm of silica in each path across the columns.
        n, gdd = TestArrayInputs.FIG3_N, 250.0 * TestArrayInputs.FIG3_X
        ratio = (quantum_width(SIGMA_PHI, n, 2.0 * gdd)
                 / classical_shot_noise(classical_width(SIGMA_PHI, gdd, gdd), n))
        classical = [self.classical(g, g) for g in gdd[0].tolist()]
        expected = [[self.quantum(a, 2.0 * g) * math.sqrt(a) / c
                     for g, c in zip(gdd[0].tolist(), classical)] for a in n[:, 0].tolist()]
        np.testing.assert_allclose(ratio, expected, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("gdd_sum", [500.0, -500.0, FIG2_GDD])
    def test_sqrt_two_at_transition(self, gdd_sum):
        n_t = transition_photon_number(SIGMA_PHI, gdd_sum)
        assert self.quantum(n_t, gdd_sum) / asymptotic_width(SIGMA_PHI, gdd_sum) == pytest.approx(
            math.sqrt(2.0), rel=1e-6)


class TestStateSpec:
    def test_zero_photons_rejected(self):
        with pytest.raises(DomainError):
            StateSpec(StateKind.ANTI_CORRELATED_FOCK, 0)

    def test_absurd_photon_number_rejected(self):
        with pytest.raises(DomainError):
            StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1e13)

    def test_coherent_needs_magnitudes(self):
        with pytest.raises(DomainError):
            StateSpec(StateKind.ENTANGLED_COHERENT, 2)

    def test_fock_states_take_no_magnitudes(self):
        with pytest.raises(DomainError):
            StateSpec(StateKind.CORRELATED_FOCK, 2, v_mag=1.0, u_mag=1.0)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(DomainError):
            StateSpec(StateKind.ENTANGLED_COHERENT, 2, v_mag=-1.0, u_mag=1.0)

    @pytest.mark.parametrize("magnitude", [math.inf, math.nan])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(DomainError):
            StateSpec(StateKind.ENTANGLED_COHERENT, 2, v_mag=1.0, u_mag=magnitude)


class TestQuantumDistribution:
    def test_anti_correlated_variable_and_mean(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 5)
        dist = quantum_distribution(state, spectrum, pair(0.0, 0.0, delay1=130.0, delay2=30.0))
        assert dist.variable is TimingVariable.MEAN_TIME_DIFFERENCE
        assert dist.mean == 100.0
        assert dist.amplitude_scale == 1.0

    def test_correlated_uses_sum_variable_and_sum_mean(self, spectrum):
        state = StateSpec(StateKind.CORRELATED_FOCK, 5)
        dist = quantum_distribution(state, spectrum, pair(0.0, 0.0, delay1=130.0, delay2=30.0))
        assert dist.variable is TimingVariable.MEAN_TIME_SUM
        assert dist.mean == 160.0

    def test_coherent_matches_fock_with_amplitude_scale(self, spectrum):
        paths = pair(300.0, -40.0, delay1=10.0)
        fock = quantum_distribution(StateSpec(StateKind.ANTI_CORRELATED_FOCK, 2), spectrum, paths)
        coherent = quantum_distribution(
            StateSpec(StateKind.ENTANGLED_COHERENT, 2, v_mag=1.0, u_mag=3.0), spectrum, paths
        )
        assert coherent.sigma == fock.sigma
        assert coherent.mean == fock.mean
        assert coherent.amplitude_scale == 81.0

    @given(
        st.floats(min_value=1, max_value=200),
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.1, max_value=3.0),
        gdd_values,
    )
    @example(200.0, 3.0, 3.0, 0.0)  # (3 * 3)^400 overflows float64
    @example(200.0, 0.1, 3.0, 0.0)  # 0.1^400 underflows, the product ~1e-209 does not
    @settings(max_examples=60)
    def test_coherent_width_independent_of_magnitudes(self, n, v, u, gdd):
        spectrum = GaussianSpectrum.from_si(3.7e11)
        paths = pair(gdd, 0.0)
        state = StateSpec(StateKind.ENTANGLED_COHERENT, n, v_mag=v, u_mag=u)
        v_factor, u_factor = v ** (2.0 * n), u ** (2.0 * n)
        expected = v_factor * u_factor
        if not math.isfinite(expected):
            with pytest.raises(DomainError, match="overflows"):
                quantum_distribution(state, spectrum, paths)
            return
        base = quantum_distribution(
            StateSpec(StateKind.ENTANGLED_COHERENT, n, v_mag=1.0, u_mag=1.0), spectrum, paths
        )
        other = quantum_distribution(state, spectrum, paths)
        assert other.sigma == base.sigma
        assert other.mean == base.mean
        if min(v_factor, u_factor) < sys.float_info.min:
            # A factor underflows; the product is taken in log space.
            log_space = math.exp(2.0 * n * (math.log(v) + math.log(u)))
            assert math.isclose(other.amplitude_scale, log_space, rel_tol=1e-12)
        else:
            assert other.amplitude_scale == expected

    def test_coherent_scale_past_float64_range_falls_back_to_log_space(self, spectrum):
        # 1.2^20000 overflows on its own; the product 0.96^20000 underflows to 0.
        state = StateSpec(StateKind.ENTANGLED_COHERENT, 10_000, v_mag=1.2, u_mag=0.8)
        assert quantum_distribution(state, spectrum, pair(0.0, 0.0)).amplitude_scale == 0.0
        # 3^2000 overflows on its own, the product 0.9^2000 ~ 1e-92 does not.
        state = StateSpec(StateKind.ENTANGLED_COHERENT, 1_000, v_mag=3.0, u_mag=0.3)
        expected = math.exp(2000.0 * (math.log(3.0) + math.log(0.3)))
        scale = quantum_distribution(state, spectrum, pair(0.0, 0.0)).amplitude_scale
        assert scale == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("v,u", [(0.0, 1.0), (1.2, 0.0)])
    def test_zero_coherent_amplitude_gives_zero_scale(self, spectrum, v, u):
        state = StateSpec(StateKind.ENTANGLED_COHERENT, 10, v_mag=v, u_mag=u)
        assert quantum_distribution(state, spectrum, pair(0.0, 500.0)).amplitude_scale == 0.0

    def test_coherent_scale_overflow_is_domain_error(self, spectrum):
        state = StateSpec(StateKind.ENTANGLED_COHERENT, 10_000, v_mag=1.2, u_mag=1.2)
        with pytest.raises(DomainError, match="overflows"):
            quantum_distribution(state, spectrum, pair(0.0, 0.0))

    @given(photon_numbers, gdd_values, gdd_values)
    @settings(max_examples=60)
    def test_correlated_and_anti_correlated_widths_agree(self, n, g1, g2):
        spectrum = GaussianSpectrum.from_si(3.7e11)
        paths = pair(g1, g2)
        anti = quantum_distribution(StateSpec(StateKind.ANTI_CORRELATED_FOCK, n), spectrum, paths)
        corr = quantum_distribution(StateSpec(StateKind.CORRELATED_FOCK, n), spectrum, paths)
        assert anti.sigma == corr.sigma


class TestGatedDetectorDistribution:
    def test_equal_delays_and_positions_centre_at_zero(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4)
        paths = pair(250.0, 250.0, delay1=55.0, delay2=55.0)
        dist = gated_detector_distribution(state, spectrum, paths, 20.0, 20.0)
        assert dist.variable is TimingVariable.GATED_POSITION_TIME_DIFFERENCE
        assert dist.mean == 0.0

    def test_width_shared_with_time_domain_law(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4)
        paths = pair(250.0, 250.0)
        dist = gated_detector_distribution(state, spectrum, paths, 1.0, 1.0)
        assert dist.sigma == quantum_width(spectrum.sigma_phi, 4, 500.0)

    def test_cancellation_carries_over(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4)
        paths = pair(250.0, -250.0)
        dist = gated_detector_distribution(state, spectrum, paths, 3.0, 3.0)
        assert dist.sigma == quantum_width(spectrum.sigma_phi, 4, 0.0)

    def test_multi_segment_paths_rejected(self, spectrum):
        seg = MediumSegment("m", alpha=0.0, beta=1.0, length=1.0)
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4)
        with pytest.raises(DomainError):
            gated_detector_distribution(state, spectrum, PathPair([seg, seg], [seg]), 1.0, 1.0)

    def test_negative_positions_rejected(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4)
        with pytest.raises(DomainError):
            gated_detector_distribution(state, spectrum, pair(1.0, 1.0), -1.0, 1.0)

    @pytest.mark.parametrize("positions", [(math.nan, 1.0), (1.0, math.inf), (math.inf, math.nan)])
    def test_non_finite_positions_rejected(self, spectrum, positions):
        # Once accepted, and then blamed on the GDD they gave ("... gdd_sum_fs2 = nan").
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4)
        with pytest.raises(DomainError, match="^mean detection positions must be finite and >= 0$"):
            gated_detector_distribution(state, spectrum, pair(1.0, 1.0), *positions)


class TestQuantumClassicalRatio:
    def test_dispersion_free_value(self, spectrum):
        for n in (1, 10, 1000):
            state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, n)
            ratio = quantum_classical_ratio(state, spectrum, pair(0.0, 0.0))
            assert ratio == pytest.approx(1.0 / math.sqrt(2.0 * n), rel=1e-12)
            assert ratio < 1.0

    def test_large_n_with_dispersion_exceeds_unity(self, spectrum):
        # 100 cm of silica in each path
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1e6)
        assert quantum_classical_ratio(state, spectrum, pair(25_000.0, 25_000.0)) > 1.0

    def test_ratio_grows_like_sqrt_n_past_transition(self, spectrum):
        paths = pair(250.0, 250.0)
        r1 = quantum_classical_ratio(StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1e8), spectrum, paths)
        r2 = quantum_classical_ratio(StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4e8), spectrum, paths)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-3)

    def test_unique_crossover_for_symmetric_dispersion(self, spectrum):
        state_of = lambda n: StateSpec(StateKind.ANTI_CORRELATED_FOCK, n)
        paths = pair(25_000.0, 25_000.0)
        ns = np.logspace(0, 8, 400)
        ratios = np.array([quantum_classical_ratio(state_of(float(n)), spectrum, paths) for n in ns])
        assert ratios[0] < 1.0 < ratios[-1]
        crossings = np.sum(np.diff(np.sign(ratios - 1.0)) != 0)
        assert crossings == 1

    def test_array_ratio_matches_each_scalar_ratio_bit_for_bit(self, spectrum):
        # The surface grid's one call, against the library's per-point ratio.
        n = np.logspace(0, 6, 13)[:, None]
        gdd1, gdd2 = np.array([0.0, 250.0, -3e4, 1e5]), np.array([0.0, 250.0, 3e4, 7.5e3])
        ratios = width_ratio(spectrum.sigma_phi, n, gdd1, gdd2)
        expected = [[quantum_classical_ratio(StateSpec(StateKind.ANTI_CORRELATED_FOCK, float(ni)),
                                             spectrum, pair(g1, g2)) for g1, g2 in zip(gdd1, gdd2)]
                    for ni in n[:, 0]]
        assert ratios.tolist() == expected


class TestDensity:
    def test_peak_value(self):
        dist = TimingDistribution(TimingVariable.MEAN_TIME_DIFFERENCE, mean=5.0, sigma=2.0)
        assert density_at(dist, 5.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2 * math.pi)))

    def test_symmetry(self):
        dist = TimingDistribution(TimingVariable.MEAN_TIME_DIFFERENCE, mean=5.0, sigma=2.0)
        assert density_at(dist, 5.0 + 1.3) == pytest.approx(density_at(dist, 5.0 - 1.3), rel=1e-15)

    def test_unit_normalisation_by_quadrature(self):
        dist = TimingDistribution(
            TimingVariable.MEAN_TIME_DIFFERENCE, mean=-3.0, sigma=17.0, amplitude_scale=81.0
        )
        nodes, weights = np.polynomial.legendre.leggauss(200)
        tau = dist.mean + 10.0 * dist.sigma * nodes
        integral = 10.0 * dist.sigma * float(weights @ density_at(dist, tau))
        assert integral == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            TimingDistribution(TimingVariable.MEAN_TIME_DIFFERENCE, mean=0.0, sigma=0.0)

    @pytest.mark.parametrize("mean, sigma", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan),
    ])
    def test_non_finite_parameters_rejected(self, mean, sigma):
        with pytest.raises(DomainError):
            TimingDistribution(TimingVariable.MEAN_TIME_DIFFERENCE, mean=mean, sigma=sigma)


SPECIAL_VALUES = (0.0, -0.0, -1.0, 1e-320, 1e-300, 1e300, math.nextafter(1e12, math.inf),
                  math.inf, -math.inf, math.nan)
# Each scalar public function, with an ordinary value for each numeric argument.
SCALAR_FUNCTIONS = {f.__name__: (f, ordinary) for f, ordinary in [
    (quantum_width, (SIGMA_PHI, 10.0, 500.0)),
    (asymptotic_width, (SIGMA_PHI, 500.0)),
    (transition_photon_number, (SIGMA_PHI, 500.0)),
    (classical_width, (SIGMA_PHI, 250.0, -250.0)),
    (classical_shot_noise, (3.0, 10.0)),
    (width_ratio, (SIGMA_PHI, 10.0, 250.0, -250.0)),
    (omega_from_wavelength_nm, (800.0,)),
    (wavelength_nm_from_omega, (2.35,)),
    (sigma_phi_from_rad_per_s, (3.7e11,)),
    (air_length_m, (500.0, 0.1)),
    (equivalent_air_length, (1.0,)),
]}


@pytest.mark.parametrize("name", SCALAR_FUNCTIONS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_special_values_give_a_finite_result_or_domain_error(name, data):
    function, ordinary = SCALAR_FUNCTIONS[name]
    args = [data.draw(st.sampled_from((*SPECIAL_VALUES, value)), label=f"arg{i}")
            for i, value in enumerate(ordinary)]
    try:
        result = function(*args)
    except DomainError:
        return
    assert isinstance(result, float) and math.isfinite(result)
    # Every one of them but the air lengths is a width, a photon number or a
    # frequency, positive but for the asymptote of a cancelled GDD: none returns
    # a 0.0 that has underflowed.  An air length has its GDD's sign, or is 0.
    if function is air_length_m:
        assert (result != 0) == (args[0] != 0)
        return
    if function is equivalent_air_length or (function is asymptotic_width and args[1] == 0):
        assert result >= 0
    else:
        assert result > 0

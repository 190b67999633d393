"""Tests for the quadrature oracle.

The trapezoid engine is checked first against textbook integrals, then
against the closed-form laws it exists to validate.
"""

import inspect
import math

import numpy as np
import pytest

from qtiming.distributions import (
    StateKind,
    StateSpec,
    TimingDistribution,
    TimingVariable,
    quantum_distribution,
    quantum_width,
)
from qtiming.errors import ConvergenceError, DomainError
from qtiming.media import MediumSegment, PathPair, catalog_segment
from qtiming import oracle
from qtiming.oracle import (
    PHASE_ENVELOPE_RAD,
    amplitude_numeric,
    numeric_central_moment,
    numeric_moments,
    verify_closed_form,
    _plancherel_moments,
    _trapezoid_integral,
)
from qtiming.spectral import GaussianSpectrum

SIGMA_PHI = 3.7e-4


@pytest.fixture
def spectrum():
    return GaussianSpectrum.from_si(3.7e11)


def pair(gdd1, gdd2, delay1=0.0, delay2=0.0):
    return PathPair(
        [MediumSegment("m1", alpha=delay1, beta=gdd1, length=1.0)],
        [MediumSegment("m2", alpha=delay2, beta=gdd2, length=1.0)],
    )


def reference_integral(b, z):
    # Complex Gaussian integral over the whole line; the window tails are
    # below 1e-21 of the peak at the default half-width of 10 sigma.
    p = 0.5 - 1j * b
    return np.sqrt(np.pi / p) * np.exp(-z * z / (4.0 * p))


class TestQuadratureEngine:
    def test_pure_gaussian(self):
        values, errors, points = _trapezoid_integral(0.0, np.array([0.0]))
        assert values[0].real == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
        assert abs(values[0].imag) < 1e-14
        assert errors[0] < 1e-12
        assert points >= 15

    @pytest.mark.parametrize(
        "b,z",
        [(0.0, 2.0), (5.0, 0.0), (-5.0, 1.0), (50.0, 3.0), (500.0, 7.0), (999.0, 0.5)],
    )
    def test_against_reference_formula(self, b, z):
        values, _, _ = _trapezoid_integral(b, np.array([z]))
        expected = reference_integral(b, z)
        assert abs(values[0] - expected) / abs(expected) < 1e-10

    def test_budget_exhaustion_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_POINTS", 600)
        with pytest.raises(ConvergenceError) as excinfo:
            _trapezoid_integral(800.0, np.array([0.0]))
        assert excinfo.value.achieved > 0
        assert excinfo.value.points_used <= 600

    def test_doubling_budget_never_increases_error_estimate(self, monkeypatch):
        monkeypatch.setattr(oracle, "_REL_TOL", 1e-12)
        achieved = []
        for max_points in (600, 1200, 2400, 4800):
            monkeypatch.setattr(oracle, "_MAX_POINTS", max_points)
            try:
                _, errors, _ = _trapezoid_integral(800.0, np.array([0.0]))
                achieved.append(errors[0])
            except ConvergenceError as exc:
                achieved.append(exc.achieved)
        assert all(b <= a for a, b in zip(achieved, achieved[1:]))

    def test_determinism(self):
        zs = np.linspace(-40.0, 60.0, 37)
        first = _trapezoid_integral(137.0, zs)
        again = _trapezoid_integral(137.0, zs)
        assert first[0].tolist() == again[0].tolist()
        assert first[1].tolist() == again[1].tolist()
        assert first[2] == again[2]

    @pytest.mark.parametrize("zs", [np.array([0.0]), np.linspace(-40.0, 60.0, 37)],
                             ids=["one-z", "grid"])
    def test_budget_decides_whether_a_value_is_returned_not_which(self, zs, monkeypatch):
        # The ladder's levels do not depend on the budget, which only stops it.
        values, errors, points = _trapezoid_integral(137.0, zs)
        monkeypatch.setattr(oracle, "_MAX_POINTS", points)
        tight = _trapezoid_integral(137.0, zs)
        assert tight[0].tolist() == values.tolist()
        assert tight[1].tolist() == errors.tolist()
        assert tight[2] == points
        monkeypatch.setattr(oracle, "_MAX_POINTS", points - 1)
        with pytest.raises(ConvergenceError):
            _trapezoid_integral(137.0, zs)

    @pytest.mark.parametrize("function, parameters", [
        (_trapezoid_integral, ["b", "zs"]),
        (amplitude_numeric, ["state", "spectrum", "paths", "tau"]),
        (verify_closed_form, ["state", "spectrum", "paths", "grid"]),
    ], ids=["trapezoid_integral", "amplitude_numeric", "verify_closed_form"])
    def test_entry_points_take_no_budget(self, function, parameters):
        # The budget is the module's constant, not an argument of any call.
        assert list(inspect.signature(function).parameters) == parameters


class TestTrapezoidVectorisation:
    """One FFT-folded lattice per grid gives the one-point sums at each z."""

    ZS = np.linspace(-40.0, 60.0, 37)

    @pytest.mark.parametrize("b", [0.0, 1.37, -12.0, 137.0])
    def test_lattice_matches_one_point_sums(self, b):
        values, _, points = _trapezoid_integral(b, self.ZS)
        single = [_trapezoid_integral(b, np.array([z])) for z in self.ZS]
        one_point = np.array([value[0] for value, _, _ in single])
        assert np.abs(values - one_point).max() <= 1e-12 * np.abs(one_point).max()
        assert points < sum(used for _, _, used in single)

    @pytest.mark.parametrize("b", [0.0, 1.37])
    def test_every_grid_point_meets_the_tolerance(self, b):
        # On [0, 10] the far end settles a level after z = 0: there the
        # sum's period 2 pi / h still folds in the peak.
        values, errors, _ = _trapezoid_integral(b, np.linspace(0.0, 10.0, 11))
        floor = 1e-3 * math.sqrt(2.0 * math.pi)
        assert np.all(errors <= oracle._REL_TOL * np.maximum(np.abs(values), floor))

    def test_lattice_beyond_budget_raises(self, monkeypatch):
        # h dz L = 2 pi: a grid this fine needs L ~ 1e9 once h resolves the
        # Gaussian, so the FFT length is held to the budget too.
        monkeypatch.setattr(oracle, "_MAX_POINTS", 4096)
        with pytest.raises(ConvergenceError) as excinfo:
            _trapezoid_integral(0.0, np.linspace(0.0, 1e-6, 5))
        assert excinfo.value.points_used <= 4096

    # The ids keep the names these cases had when the tolerance was a field
    # of the quadrature spec.
    @pytest.mark.parametrize("b,rel_tol", [
        (800.0, 0.1),
        # b (h/2)^2 = 6 pi at h = 0.3125: the sums at h and h/2 both see
        # exp(i b u^2) = 1 and agree to rounding, on the b = 0 value.
        (24.0 * math.pi / 0.3125**2, oracle._REL_TOL),
    ], ids=["800.0-quad0", "772.0778105462275-quad1"])
    def test_unresolved_budget_raises_rather_than_accept_aliased_sums(
            self, b, rel_tol, monkeypatch):
        monkeypatch.setattr(oracle, "_REL_TOL", rel_tol)
        monkeypatch.setattr(oracle, "_MAX_POINTS", 600)
        with pytest.raises(ConvergenceError, match="resolving its phase") as excinfo:
            _trapezoid_integral(b, np.array([0.0]))
        assert excinfo.value.points_used <= 600
        # Without the resolving step, h against h/2 alone accepts a wrong value.
        monkeypatch.setattr(oracle, "_RESOLVE_SAFETY", 0.0)
        values, _, _ = _trapezoid_integral(b, np.array([0.0]))
        expected = reference_integral(b, 0.0)
        assert abs(values[0] - expected) > abs(expected)


class TestAmplitudeNumeric:
    def test_single_photon_no_dispersion_peak(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1)
        value = amplitude_numeric(state, spectrum, pair(0.0, 0.0), tau=0.0)
        expected = math.sqrt(2.0 * math.pi) * spectrum.sigma_phi
        assert abs(value - expected) / expected < 1e-10

    def test_correlated_profile_matches_anti_correlated(self, spectrum):
        # Offsets about the state's own mean: the |A|^2 profiles coincide.
        anti = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 4)
        corr = StateSpec(StateKind.CORRELATED_FOCK, 4)
        paths = pair(300.0, 100.0, delay1=40.0, delay2=15.0)
        for offset in (-900.0, -150.0, 0.0, 333.0):
            a = amplitude_numeric(anti, spectrum, paths, tau=(40.0 - 15.0) + offset)
            c = amplitude_numeric(corr, spectrum, paths, tau=(40.0 + 15.0) + offset)
            assert abs(a) ** 2 == pytest.approx(abs(c) ** 2, rel=1e-12)

    def test_coherent_carries_magnitude_factor(self, spectrum):
        paths = pair(200.0, -50.0)
        fock = amplitude_numeric(StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3), spectrum, paths, 100.0)
        coherent = amplitude_numeric(
            StateSpec(StateKind.ENTANGLED_COHERENT, 3, v_mag=1.5, u_mag=0.5), spectrum, paths, 100.0
        )
        assert abs(coherent) == pytest.approx((1.5 * 0.5) ** 3 * abs(fock), rel=1e-12)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_non_finite_tau_is_domain_error(self, spectrum, tau):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3)
        with pytest.raises(DomainError, match="finite"):
            amplitude_numeric(state, spectrum, pair(100.0, 100.0), tau=tau)

    def test_phase_envelope_enforced(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1e7)
        # N * gdd * sigma_phi^2 = 1e7 * 1e5 * 1.369e-7 = 1.37e5 rad > envelope
        assert 1e7 * 1e5 * spectrum.sigma_phi**2 > PHASE_ENVELOPE_RAD
        with pytest.raises(DomainError, match="envelope"):
            amplitude_numeric(state, spectrum, pair(5e4, 5e4), tau=0.0)


class TestVerifyClosedForm:
    def grid_for(self, spectrum, n, gdd_total, points=41):
        sigma = quantum_width(spectrum.sigma_phi, n, gdd_total)
        return np.linspace(-5.0 * sigma, 5.0 * sigma, points)

    def test_moderate_dispersion(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3)
        report = verify_closed_form(
            state, spectrum, pair(200.0, 200.0), self.grid_for(spectrum, 3, 400.0)
        )
        assert report.max_rel_err < 1e-6
        assert len(report.numeric) == 41
        assert report.points_used > 0

    def test_cancellation_configuration(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 10)
        report = verify_closed_form(
            state, spectrum, pair(300.0, -300.0), self.grid_for(spectrum, 10, 0.0)
        )
        assert report.max_rel_err < 1e-8

    def test_ratio_surface_corner(self, spectrum):
        # N = 50 with 100 cm of silica in each path
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 50)
        report = verify_closed_form(
            state, spectrum, pair(25_000.0, 25_000.0), self.grid_for(spectrum, 50, 50_000.0)
        )
        assert report.max_rel_err < 1e-6

    def test_envelope_corner(self, spectrum):
        # Largest documented validation point: N = 1e3, |gdd| = 1e6 fs^2
        # (dispersion phase ~137 rad).
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1000)
        report = verify_closed_form(
            state, spectrum, pair(5e5, 5e5), self.grid_for(spectrum, 1000, 1e6, points=21)
        )
        assert report.max_rel_err < 1e-6

    def test_nonzero_mean_offset(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 5)
        sigma = quantum_width(spectrum.sigma_phi, 5, 500.0)
        grid = 250.0 + np.linspace(-5.0 * sigma, 5.0 * sigma, 21)
        report = verify_closed_form(
            state, spectrum, pair(250.0, 250.0, delay1=275.0, delay2=25.0), grid
        )
        assert report.max_rel_err < 1e-6

    def test_empty_grid_rejected(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3)
        with pytest.raises(DomainError):
            verify_closed_form(state, spectrum, pair(0.0, 0.0), [])

    def test_far_tail_grid_rejected(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3)
        sigma = quantum_width(spectrum.sigma_phi, 3, 0.0)
        with pytest.raises(DomainError, match="tail"):
            verify_closed_form(state, spectrum, pair(0.0, 0.0), [50.0 * sigma])

    def test_phase_envelope_enforced(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1e7)
        with pytest.raises(DomainError, match="envelope"):
            verify_closed_form(state, spectrum, pair(5e4, 5e4), [0.0])

    @pytest.mark.parametrize("n", [1e5, 1e6])
    def test_fig2_plateau(self, spectrum, n):
        # 400 cm of silica in one path: b = N gdd sigma_phi^2 reaches 1.37e4 at
        # N = 1e6, on the plateau where dispersion destroys the gain.
        paths = PathPair([catalog_segment("fused_silica", 400.0)], [])
        _, gdd1, _, gdd2 = paths.coefficients()
        grid = self.grid_for(spectrum, n, gdd1 + gdd2)
        report = verify_closed_form(StateSpec(StateKind.ANTI_CORRELATED_FOCK, n), spectrum,
                                    paths, grid)
        assert report.max_rel_err < 1e-6

    @pytest.mark.parametrize("grid,match", [
        ([-2.0, -1.0, 0.5, 1.0], "evenly spaced"),
        ([1.0, 0.0, -1.0], "ascending"),
        ([-1.0, 0.0, 0.0, 1.0], "ascending"),
        ([0.0, math.inf], "finite"),
    ], ids=["uneven", "descending", "repeated", "infinite"])
    def test_grid_must_ascend_evenly(self, spectrum, grid, match):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3)
        with pytest.raises(DomainError, match=match):
            verify_closed_form(state, spectrum, pair(200.0, 200.0), grid)

    def test_amplitude_scale_error_is_caught(self, spectrum, monkeypatch):
        # The Plancherel normaliser does not cancel an error in the
        # amplitude's absolute scale, as self-normalisation would.
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3)
        paths, grid = pair(200.0, 200.0), self.grid_for(spectrum, 3, 400.0)
        assert verify_closed_form(state, spectrum, paths, grid).max_rel_err < 1e-6
        exact = oracle._trapezoid_integral

        def scaled(b, zs):
            values, errors, points = exact(b, zs)
            return values * (1.0 + 1e-5), errors, points

        monkeypatch.setattr(oracle, "_trapezoid_integral", scaled)
        assert verify_closed_form(state, spectrum, paths, grid).max_rel_err > 1e-6

    def test_report_holds_each_grid_point(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 2)
        grid = self.grid_for(spectrum, 2, 0.0, points=5)
        report = verify_closed_form(state, spectrum, pair(0.0, 0.0), grid)
        assert report.grid == list(grid)
        assert len(report.closed_form) == len(report.numeric) == 5
        assert report.points_used > 0


class TestStateFamilies:
    """State families with equal geometry give equal reports."""

    STATES = [
        StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3),
        StateSpec(StateKind.CORRELATED_FOCK, 3),
        StateSpec(StateKind.ENTANGLED_COHERENT, 3, 1.2, 0.8),
    ]

    @staticmethod
    def verify(state, spectrum):
        grid = np.linspace(-5.0, 5.0, 41) * quantum_width(SIGMA_PHI, 3, 500.0)
        return verify_closed_form(state, spectrum, pair(250.0, 250.0), grid)

    def test_families_at_equal_geometry_give_equal_reports(self, spectrum):
        reports = [self.verify(state, spectrum) for state in self.STATES]
        assert reports[0].max_rel_err < 1e-6
        assert reports[1] == reports[0]
        assert reports[2] == reports[0]

    def test_repeat_verification_gives_equal_report(self, spectrum):
        state = self.STATES[0]
        assert self.verify(state, spectrum) == self.verify(state, spectrum)


def width_from_gdd_difference(state, spectrum, paths):
    """The closed form with the arms' GDDs combined as gdd1 - gdd2."""
    dist = quantum_distribution(state, spectrum, paths)
    _, gdd1, _, gdd2 = paths.coefficients()
    sigma = quantum_width(spectrum.sigma_phi, state.n_photons, gdd1 - gdd2)
    return TimingDistribution(dist.variable, dist.mean, sigma, dist.amplitude_scale)


def swapped_means(state, spectrum, paths):
    """The closed form with the sum's and the difference's means swapped."""
    dist = quantum_distribution(state, spectrum, paths)
    delay1, _, delay2, _ = paths.coefficients()
    summed = dist.variable is TimingVariable.MEAN_TIME_SUM
    mean = delay1 - delay2 if summed else delay1 + delay2
    return TimingDistribution(dist.variable, mean, dist.sigma, dist.amplitude_scale)


class TestAsymmetricArms:
    """Unequal delays and GDDs of opposite sign in the two arms.

    Path 1 is 1 cm of alpha = 40 fs/cm, beta = +6e4 fs^2/cm, path 2 is 1 cm
    of alpha = 15 fs/cm, beta = -2e4 fs^2/cm.  Only the arm-sign rule
    (observable t1 + s t2, GDD gdd1 + s^2 gdd2) passes: a closed form that
    combines the GDDs as gdd1 - gdd2, or swaps the sum's and the
    difference's means, fails every case.
    """

    TOLERANCE = 1e-6
    PATHS = pair(6e4, -2e4, delay1=40.0, delay2=15.0)
    STATES = [StateSpec(kind, n, *((1.2, 0.8) if kind is StateKind.ENTANGLED_COHERENT else ()))
              for kind in StateKind for n in (1, 10, 100)]
    IDS = [f"{state.kind.value}-N{state.n_photons}" for state in STATES]

    def misfits(self, state, spectrum):
        """Relative misfits of ``oracle.quantum_distribution`` against the oracle.

        The density's largest relative error on a 41-point grid of mean +-
        5 sigma, and the numeric mean's and width's distances from the
        closed form's, in units of its sigma.
        """
        dist = oracle.quantum_distribution(state, spectrum, self.PATHS)
        grid = np.linspace(dist.mean - 5.0 * dist.sigma, dist.mean + 5.0 * dist.sigma, 41)
        report = verify_closed_form(state, spectrum, self.PATHS, grid)
        mean, sigma = numeric_moments(state, spectrum, self.PATHS)
        return report.max_rel_err, abs(mean - dist.mean) / dist.sigma, abs(sigma / dist.sigma - 1.0)

    @pytest.mark.parametrize("state", STATES, ids=IDS)
    def test_closed_form_passes(self, spectrum, state):
        assert max(self.misfits(state, spectrum)) < self.TOLERANCE

    @pytest.mark.parametrize("mutant", [width_from_gdd_difference, swapped_means])
    @pytest.mark.parametrize("state", STATES, ids=IDS)
    def test_mutated_arm_rule_fails(self, spectrum, state, mutant, monkeypatch):
        monkeypatch.setattr(oracle, "quantum_distribution", mutant)
        density, mean, width = self.misfits(state, spectrum)
        assert density > self.TOLERANCE
        assert max(mean, width) > self.TOLERANCE


class TestNumericMoments:
    def test_width_without_dispersion(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 5)
        _, sigma = numeric_moments(state, spectrum, pair(100.0, -100.0))
        expected = 1.0 / (math.sqrt(2.0) * spectrum.sigma_phi * 5.0)
        assert sigma == pytest.approx(expected, rel=1e-6)

    def test_mean_tracks_group_delays(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 3)
        mean, _ = numeric_moments(state, spectrum, pair(50.0, 50.0, delay1=120.0, delay2=20.0))
        assert mean == pytest.approx(100.0, abs=1e-6)

    def test_moments_match_closed_form_with_dispersion(self, spectrum):
        state = StateSpec(StateKind.CORRELATED_FOCK, 7)
        paths = pair(400.0, 150.0, delay1=30.0, delay2=10.0)
        mean, sigma = numeric_moments(state, spectrum, paths)
        dist = quantum_distribution(state, spectrum, paths)
        assert mean == pytest.approx(dist.mean, abs=1e-6)
        assert sigma == pytest.approx(dist.sigma, rel=1e-6)

    def test_third_central_moment_vanishes(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 5)
        paths = pair(250.0, 250.0)
        third = numeric_central_moment(state, spectrum, paths, order=3)
        _, sigma = numeric_moments(state, spectrum, paths)
        assert abs(third) < 1e-8 * sigma**3

    @pytest.mark.parametrize("order", [-1, 2.5, 2.0, "2", True, False])
    def test_invalid_order_rejected(self, spectrum, order):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 5)
        with pytest.raises(DomainError, match="order"):
            numeric_central_moment(state, spectrum, pair(250.0, 250.0), order=order)

    def test_zeroth_moment_is_one(self, spectrum):
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 5)
        assert numeric_central_moment(state, spectrum, pair(250.0, 250.0), order=0) == 1.0

    @pytest.mark.parametrize("n", [1e5, 1e6])
    def test_fig2_plateau(self, spectrum, n):
        # 400 cm of silica in one path: b = N gdd sigma_phi^2 reaches 1.37e4 at
        # N = 1e6, where dispersion destroys the gain.
        paths = PathPair([catalog_segment("fused_silica", 400.0)], [])
        delay1, gdd1, delay2, gdd2 = paths.coefficients()
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, n)
        mean, sigma = numeric_moments(state, spectrum, paths)
        assert mean == pytest.approx(delay1 - delay2, abs=1e-6)
        assert sigma == pytest.approx(
            quantum_width(spectrum.sigma_phi, n, gdd1 + gdd2), rel=1e-6)
        # The density is Gaussian: kurtosis 3.
        fourth = numeric_central_moment(state, spectrum, paths, order=4)
        assert fourth / sigma**4 == pytest.approx(3.0, rel=1e-12)

    def test_moments_reach_beyond_amplitude_envelope(self, spectrum):
        # fig2's medium at N = 1e7: b = 1.37e5, beyond the amplitudes' envelope.
        paths = PathPair([catalog_segment("fused_silica", 400.0)], [])
        _, gdd1, _, gdd2 = paths.coefficients()
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, 1e7)
        assert 1e7 * (gdd1 + gdd2) * spectrum.sigma_phi**2 > PHASE_ENVELOPE_RAD
        with pytest.raises(DomainError, match="envelope"):
            amplitude_numeric(state, spectrum, paths, tau=0.0)
        _, sigma = numeric_moments(state, spectrum, paths)
        assert sigma == pytest.approx(quantum_width(spectrum.sigma_phi, 1e7, gdd1 + gdd2), rel=1e-6)


class TestPlancherelMoments:
    @pytest.mark.parametrize("b", [0.0, 1.37, -137.0, 1.37e4, 2e4])
    def test_variance_is_exact(self, b):
        mean, moments = _plancherel_moments(b, 2)
        variance = (1.0 + 4.0 * b * b) / 2.0
        assert moments[0] == pytest.approx(2.0 * math.pi**1.5, rel=1e-15)
        assert moments[2] / moments[0] == pytest.approx(variance, rel=1e-15)
        assert abs(mean) <= 1e-15 * math.sqrt(variance)

    @pytest.mark.parametrize("half_width", [6.0, 28.0, 1e4])
    def test_any_window_gives_the_same_moments(self, half_width, monkeypatch):
        # The weight exp(-u^2) is resolved on every window; beyond u = 6 it
        # holds about 1e-16 of the mass, and beyond u = 28 it is 0.0 in float64.
        monkeypatch.setattr(oracle, "_HALF_WIDTH", half_width)
        _, moments = _plancherel_moments(137.0, 2)
        assert moments[0] == pytest.approx(2.0 * math.pi**1.5, rel=1e-14)
        assert moments[2] / moments[0] == pytest.approx((1.0 + 4.0 * 137.0**2) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("b", [0.0, 137.0, 1.37e4])
    def test_doubling_nodes_leaves_moments_unchanged(self, b, monkeypatch):
        mean, moments = _plancherel_moments(b, 4)
        monkeypatch.setattr(oracle, "_MOMENT_STEP", oracle._MOMENT_STEP / 2.0)
        doubled_mean, doubled = _plancherel_moments(b, 4)
        # Each moment against its natural scale, M_0 sigma_z^k.
        sigma_z = math.sqrt(moments[2] / moments[0])
        assert abs(doubled_mean - mean) <= 1e-14 * sigma_z
        for k in range(5):
            assert abs(doubled[k] - moments[k]) <= 1e-14 * moments[0] * sigma_z**k

"""Acceptance suite: the quantitative exit criteria of the artifact.

Each criterion prints one pass/fail line (run ``pytest -s`` to see them all;
they also appear for failures).  Tolerances are pinned here, not tuned.
"""

import csv
import math
import time

import numpy as np

from qtiming.cli import main
from qtiming.distributions import (
    StateKind,
    StateSpec,
    classical_width,
    quantum_distribution,
    quantum_width,
    transition_photon_number,
    asymptotic_width,
)
from qtiming.media import (
    AirConditions,
    MediumSegment,
    PathPair,
    air_dispersion_coefficient,
    equivalent_air_length,
)
from qtiming.montecarlo import SamplerConfig, sample_classical_scaling, sample_quantum
from qtiming.oracle import numeric_moments, verify_closed_form
from qtiming.spectral import GaussianSpectrum

SIGMA_PHI = 3.7e-4  # rad/fs (3.7e11 rad/s)


def report(number: int, description: str, passed: bool, elapsed: float | None = None) -> None:
    status = "PASS" if passed else "FAIL"
    timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number:02d} {status}{timing}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def pair(gdd1, gdd2, delay1=0.0, delay2=0.0):
    return PathPair(
        [MediumSegment("m1", alpha=delay1, beta=gdd1, length=1.0)],
        [MediumSegment("m2", alpha=delay2, beta=gdd2, length=1.0)],
    )


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return np.array([[float(v) for v in row] for row in reader])


def test_01_transition_photon_number():
    n_t = transition_photon_number(SIGMA_PHI, 500.0)
    ok = abs(n_t / 7.3e3 - 1.0) < 0.02
    report(1, f"transition photon number {n_t:.1f} within 2% of 7.3e3", ok)


def test_02_air_dispersion_coefficients():
    edlen = air_dispersion_coefficient(AirConditions(15.0, 101325.0, 0.0), "edlen", 800.0)
    owens = air_dispersion_coefficient(AirConditions(15.0, 101325.0, 0.20), "owens", 800.0)
    ok = abs(edlen / 0.106 - 1.0) < 0.05 and abs(owens / 0.103 - 1.0) < 0.05
    report(2, f"air dispersion: Edlen {edlen:.4f} (0.106 +/- 5%), "
              f"Owens 20% RH {owens:.4f} (0.103 +/- 5%) fs^2/cm", ok)


def test_03_silica_air_equivalence():
    one_cm = equivalent_air_length(1.0)
    four_m = equivalent_air_length(400.0) / 1000.0
    ok = 21.6 <= one_cm <= 26.4 and 9.2 <= four_m <= 10.4
    report(3, f"1 cm silica == {one_cm:.2f} m air (band 21.6-26.4); "
              f"400 cm == {four_m:.2f} km (band 9.2-10.4)", ok)


def test_04_sqrt_two_at_transition():
    rng = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(20):
        sigma_phi = 10.0 ** rng.uniform(-5, -2)
        gdd = 10.0 ** rng.uniform(0, 6)
        n_t = transition_photon_number(sigma_phi, gdd)
        ratio = quantum_width(sigma_phi, n_t, gdd) / asymptotic_width(sigma_phi, gdd)
        worst = max(worst, abs(ratio / math.sqrt(2.0) - 1.0))
    ok = worst < 1e-9
    report(4, f"width at transition is sqrt(2) x asymptote; worst rel dev {worst:.2e} < 1e-9", ok)


def test_05_oracle_equivalence_grid():
    start = time.perf_counter()
    spectrum = GaussianSpectrum.from_si(3.7e11)
    worst = 0.0
    for kind in StateKind:
        for n in (1, 3, 10, 100):
            for gdd_total in (0.0, 500.0, 1.0e5):
                if kind is StateKind.ENTANGLED_COHERENT:
                    state = StateSpec(kind, n, v_mag=1.3, u_mag=0.7)
                else:
                    state = StateSpec(kind, n)
                paths = pair(gdd_total / 2, gdd_total / 2)
                sigma = quantum_width(spectrum.sigma_phi, n, gdd_total)
                grid = np.linspace(-5 * sigma, 5 * sigma, 41)
                result = verify_closed_form(state, spectrum, paths, grid)
                worst = max(worst, result.max_rel_err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(5, f"oracle vs closed form over 36 configs x 41-point grids: "
              f"max_rel_err {worst:.2e} < 1e-6", ok, elapsed)


def test_06_dispersion_cancellation():
    start = time.perf_counter()
    spectrum = GaussianSpectrum.from_si(3.7e11)
    rng = np.random.default_rng(60606)
    bitwise_ok = True
    for _ in range(50):
        c = 10.0 ** rng.uniform(-2, 6)
        n = int(rng.integers(1, 51))
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, n)
        cancelled = quantum_distribution(state, spectrum, pair(c, -c))
        free = quantum_distribution(state, spectrum, pair(0.0, 0.0))
        bitwise_ok &= cancelled.sigma == free.sigma

    moments_ok = True
    for n in (1, 2, 5, 17, 50):
        c = float(10.0 ** rng.uniform(0, 5))
        state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, n)
        _, sigma = numeric_moments(state, spectrum, pair(c, -c))
        expected = 1.0 / (math.sqrt(2.0) * spectrum.sigma_phi * n)
        moments_ok &= abs(sigma / expected - 1.0) < 1e-6
    elapsed = time.perf_counter() - start
    ok = bitwise_ok and moments_ok and elapsed < 10.0
    report(6, "opposite-sign dispersion cancels bitwise (50 random magnitudes); "
              "numeric moments confirm the cancelled width to 1e-6", ok, elapsed)


def test_07_classical_no_cancellation():
    rng = np.random.default_rng(70707)
    ok = True
    for _ in range(50):
        sigma_phi = 10.0 ** rng.uniform(-5, -2)
        g1 = rng.uniform(-1e6, 1e6)
        g2 = rng.uniform(-1e6, 1e6)
        ok &= classical_width(sigma_phi, g1, g2) == classical_width(sigma_phi, g1, -g2)
    report(7, "classical width exactly invariant under dispersion sign flip "
              "(50 random configs)", ok)


def test_08_photon_number_scan(tmp_path):
    start = time.perf_counter()
    assert main(["scan", "--preset", "fig2", "--out-dir", str(tmp_path)]) == 0
    data = read_csv(tmp_path / "scan.csv")
    n, p_quantum, p_classical = data.T

    asymptote = math.sqrt(2.0) * SIGMA_PHI**2 * 1e5
    at_top = p_quantum[np.argmin(np.abs(n - 1e6))]
    a_ok = abs(at_top / asymptote - 1.0) < 1e-3

    mask = n >= 100.0
    slope = np.polyfit(np.log10(n[mask]), np.log10(p_classical[mask]), 1)[0]
    b_ok = abs(slope + 0.5) < 0.01

    sign_changes = np.sum(np.diff(np.sign(p_quantum - p_classical)) != 0)
    c_ok = sign_changes == 1 and p_quantum[0] < p_classical[0] and p_quantum[-1] > p_classical[-1]

    elapsed = time.perf_counter() - start
    ok = a_ok and b_ok and c_ok and elapsed < 5.0
    report(8, f"photon-number scan: quantum column hits asymptote to 0.1% "
              f"(dev {abs(at_top / asymptote - 1):.1e}), classical slope {slope:.4f}, "
              f"single crossover", ok, elapsed)


def test_09_ratio_surface(tmp_path):
    start = time.perf_counter()
    assert main(["surface", "--preset", "fig3", "--out-dir", str(tmp_path)]) == 0
    data = read_csv(tmp_path / "surface.csv")
    n_values = np.unique(data[:, 0])
    x_values = np.unique(data[:, 1])
    raw = data[:, 3].reshape(len(n_values), len(x_values))
    exceeds = raw > 1.0

    def is_suffix(row):
        idx = np.where(row)[0]
        return idx.size == 0 or (idx[-1] == len(row) - 1 and np.all(np.diff(idx) == 1))

    contiguous = (
        all(is_suffix(row) for row in exceeds)
        and np.all(np.diff(exceeds.sum(axis=1)) >= 0)
    )
    corner_ok = exceeds[-1, -1]
    origin_ok = not exceeds[0, 0] and raw[0, 0] < 1.0
    elapsed = time.perf_counter() - start
    ok = bool(contiguous and corner_ok and origin_ok) and elapsed < 30.0
    report(9, "ratio surface: contiguous R>1 region in the large-N/large-x corner, "
              "R<1 at (N=1, x=0)", ok, elapsed)


def test_10_state_family_parity():
    spectrum = GaussianSpectrum.from_si(3.7e11)
    rng = np.random.default_rng(101010)

    parity_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 1000))
        g1 = rng.uniform(-1e5, 1e5)
        g2 = rng.uniform(-1e5, 1e5)
        paths = pair(g1, g2)
        anti = quantum_distribution(StateSpec(StateKind.ANTI_CORRELATED_FOCK, n), spectrum, paths)
        corr = quantum_distribution(StateSpec(StateKind.CORRELATED_FOCK, n), spectrum, paths)
        parity_ok &= anti.sigma == corr.sigma

    coherent_ok = True
    for _ in range(20):
        n = int(rng.integers(1, 200))
        v, u = rng.uniform(0.1, 3.0, size=2)
        paths = pair(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4), delay1=rng.uniform(0, 100))
        reference = quantum_distribution(
            StateSpec(StateKind.ENTANGLED_COHERENT, n, v_mag=1.0, u_mag=1.0), spectrum, paths)
        probe = quantum_distribution(
            StateSpec(StateKind.ENTANGLED_COHERENT, n, v_mag=v, u_mag=u), spectrum, paths)
        coherent_ok &= (
            probe.sigma == reference.sigma
            and probe.mean == reference.mean
            and probe.amplitude_scale == v ** (2.0 * n) * u ** (2.0 * n)
        )
    ok = parity_ok and coherent_ok
    report(10, "correlated/anti-correlated width parity and coherent-state "
               "(|v|,|u|) independence with exact amplitude scale", ok)


def test_11_monte_carlo():
    start = time.perf_counter()
    numbers = (1, 10, 100, 1000)
    widths = [estimate.sigma_hat
              for estimate in sample_classical_scaling(1.0, 1111, 100_000, numbers)]
    slope = np.polyfit(np.log10(numbers), np.log10(widths), 1)[0]
    slope_ok = abs(slope + 0.5) < 0.02

    spectrum = GaussianSpectrum.from_si(3.7e11)
    dist = quantum_distribution(
        StateSpec(StateKind.ANTI_CORRELATED_FOCK, 100), spectrum, pair(250.0, 250.0))
    cfg = SamplerConfig(seed=2222, n_samples=100_000)
    estimate = sample_quantum(dist, cfg)
    sigma_ok = abs(estimate.sigma_hat - dist.sigma) < 3.0 * estimate.standard_error
    deterministic = sample_quantum(dist, cfg) == estimate

    elapsed = time.perf_counter() - start
    ok = slope_ok and sigma_ok and deterministic and elapsed < 60.0
    report(11, f"Monte Carlo: classical slope {slope:.4f} (+/-0.02), quantum width "
               f"within 3 SE, bit-identical reruns", ok, elapsed)


def test_12_narrowing_law():
    spectrum = GaussianSpectrum.from_si(3.7e11)
    packet = spectrum.intensity_width()
    ok = all(
        quantum_width(spectrum.sigma_phi, n, 0.0) == packet / n for n in range(1, 11)
    )
    report(12, "dispersion-free width equals the packet width divided by N, "
               "exactly, for N = 1..10", ok)

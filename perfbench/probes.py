"""Per-layer probes: single public calls at fixed inputs, timed in-process.

    PYTHONPATH=src python3 perfbench/probes.py SEED

Prints one JSON object of probe results.  Each time is the median over
repeats of a timed loop.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from qtiming import (
    AirConditions,
    GaussianSpectrum,
    MediumSegment,
    PathPair,
    SamplerConfig,
    StateKind,
    StateSpec,
    amplitude_numeric,
    beta_from_index,
    omega_from_wavelength_nm,
    quantum_width,
    sample_classical,
)
from qtiming.media import edlen_index_function, owens_index_function

SPECTRUM = GaussianSpectrum.from_si(3.7e11)


def per_call(fn, number: int, repeat: int) -> float:
    """Median seconds per call of ``fn()`` over ``repeat`` loops of ``number`` calls."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def amplitude_probe(phase_rad: float) -> float:
    """Seconds for one amplitude integral at dispersion phase ``phase_rad``."""
    # Just inside the phase envelope, so rounding cannot push b past 1e3.
    gdd = phase_rad / SPECTRUM.sigma_phi**2 * (1.0 - 1e-12)
    paths = PathPair([MediumSegment("m1", 0.0, gdd / 2.0, 1.0)],
                     [MediumSegment("m2", 0.0, gdd / 2.0, 1.0)])
    state = StateSpec(kind=StateKind.ANTI_CORRELATED_FOCK, n_photons=1)
    repeat = 3 if phase_rad >= 1e3 else 7
    return per_call(lambda: amplitude_numeric(state, SPECTRUM, paths, 0.0), 1, repeat)


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    omega0 = omega_from_wavelength_nm(800.0)
    air = AirConditions()
    edlen, owens = edlen_index_function(air), owens_index_function(air)
    sigma_phi = SPECTRUM.sigma_phi
    t0 = time.perf_counter()
    sample_classical(1.0, SamplerConfig(seed=seed, n_samples=100_000, n_photons=1000))
    classical = time.perf_counter() - t0
    result = {
        "distributions.quantum_width_us":
            1e6 * per_call(lambda: quantum_width(sigma_phi, 100.0, 500.0), 20_000, 7),
        "media.beta_from_index_us.edlen":
            1e6 * per_call(lambda: beta_from_index(edlen, omega0), 200, 7),
        "media.beta_from_index_us.owens":
            1e6 * per_call(lambda: beta_from_index(owens, omega0), 200, 7),
        "oracle.amplitude_ms.b0": 1e3 * amplitude_probe(0.0),
        "oracle.amplitude_ms.b10": 1e3 * amplitude_probe(10.0),
        "oracle.amplitude_ms.b1e3": 1e3 * amplitude_probe(1e3),
        "montecarlo.classical_n1000_s": classical,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

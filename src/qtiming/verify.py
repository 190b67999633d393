"""The numerical verification suites that ``qtiming verify`` runs.

``SUITES`` maps each suite's name to a function ``(seed)`` that
returns the suite's cases, each a dict with at least ``name`` and
``passed``; ``verify --suite all`` runs them in table order.  The oracle
(and with it numpy), the sampler and ``decimal`` load inside the suites,
so importing this module loads none of them.  The quadrature suite hands the oracle each
grid as its start, stop and point count.
"""

from __future__ import annotations

import itertools
import math

from .distributions import StateKind, StateSpec, TimingDistribution, TimingVariable, quantum_width
from .errors import ConvergenceError
from .media import PathPair
from .spectral import GaussianSpectrum


def _quadrature_suite(seed: int) -> list[dict]:
    """Oracle densities against the closed form for each state family, N and GDD."""
    from .oracle import verify_closed_form

    tolerance = 1e-6
    spectrum = GaussianSpectrum.from_si(3.7e11)
    cases = []
    for kind, n, gdd_total in itertools.product(StateKind, (1, 3, 10, 100), (0.0, 500.0, 1.0e5)):
        state = StateSpec(kind, n)
        sigma = quantum_width(spectrum.sigma_phi, n, gdd_total)
        case = {"name": f"{kind.value}/N={n}/gdd={gdd_total:g}", "tolerance": tolerance}
        try:
            report = verify_closed_form(state, spectrum, PathPair.symmetric(gdd_total),
                                        -5.0 * sigma, 5.0 * sigma, 41)
            case["max_rel_err"] = report.max_rel_err
            case["points_used"] = report.points_used
            case["passed"] = report.max_rel_err < tolerance
        except ConvergenceError as exc:
            case["error"] = str(exc)
            # null, not Infinity, when no second level gave an estimate: strict JSON.
            case["achieved"] = exc.achieved if math.isfinite(exc.achieved) else None
            case["points_used"] = exc.points_used
            case["passed"] = False
        cases.append(case)
    return cases


def _montecarlo_suite(seed: int) -> list[dict]:
    """The samplers' 1/sqrt(N) slope, consistency with their input and determinism."""
    import decimal

    from .montecarlo import SamplerConfig, sample_classical_scaling, sample_quantum

    cases = []

    # Scaling of the classical averaging law with photon number.
    photon_numbers = (1, 10, 100, 1000)
    estimates = sample_classical_scaling(1.0, seed, 100_000, photon_numbers)
    # The least-squares slope of log10 width against log10 N, in decimal:
    # its log10 is correctly rounded and the fit runs at 40 digits, so the
    # one rounding to float at the end is the only one that shows, and no
    # CPU-dispatched ufunc or BLAS kernel enters the result.
    with decimal.localcontext() as context:
        context.prec = 40
        x = [decimal.Decimal(n).log10() for n in photon_numbers]
        y = [decimal.Decimal(estimate.sigma_hat).log10() for estimate in estimates]
        x_bar, y_bar = sum(x) / len(x), sum(y) / len(y)
        slope = float(sum((a - x_bar) * (b - y_bar) for a, b in zip(x, y))
                      / sum((a - x_bar) ** 2 for a in x))
    cases.append({
        "name": "classical-averaging-slope",
        "slope": slope,
        "tolerance": 0.02,
        "passed": abs(slope + 0.5) < 0.02,
    })

    # Quantum sampler consistency with the closed form.  A correct sampler
    # fails each 5 SE check with probability 5.7e-7, so the case fails on
    # about one seed in 870,000.  100,000 * (5/3)^2 = 277,778 trials, here
    # rounded up, keep the power that a 3 SE check at 100,000 trials had
    # against the same defect.
    bound = 5.0
    dist = TimingDistribution(
        variable=TimingVariable.MEAN_TIME_DIFFERENCE, mean=25.0, sigma=3.5)
    estimate = sample_quantum(dist, SamplerConfig(seed=seed, n_samples=280_000))
    sigma_ok = abs(estimate.sigma_hat - dist.sigma) < bound * estimate.standard_error
    mean_ok = abs(estimate.mean_hat - dist.mean) < bound * estimate.mean_standard_error
    cases.append({
        "name": "quantum-sampler-consistency",
        "estimate": estimate.to_dict(),
        "sigma_expected": dist.sigma,
        "tolerance_se": bound,
        "passed": bool(sigma_ok and mean_ok),
    })

    # Determinism: identical seeds give bit-identical estimates.
    repeat = sample_quantum(dist, SamplerConfig(seed=seed, n_samples=280_000))
    cases.append({
        "name": "determinism-per-seed",
        "passed": repeat == estimate,
    })
    return cases


SUITES = {"quadrature": _quadrature_suite, "montecarlo": _montecarlo_suite}

"""The benchmark's per-layer probes still run against the library.

``perfbench/probes.py`` imports library names and calls them by position,
and only a traced benchmark run executes it, so a signature change there
would otherwise go unnoticed.  The file is loaded from its path, unchanged.
"""

import importlib.util
import math
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("phase_rad", [0.0, 10.0])
def test_amplitude_probe_runs(probes, phase_rad):
    seconds = probes.amplitude_probe(phase_rad)
    assert 0 < seconds < math.inf


@pytest.mark.parametrize("index_function", ["edlen_index_function", "owens_index_function"])
def test_beta_probe_runs(probes, index_function):
    index = getattr(probes, index_function)(probes.AirConditions())
    beta = probes.beta_from_index(index, probes.omega_from_wavelength_nm(800.0))
    assert 0 < beta < math.inf

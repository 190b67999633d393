"""Checks on what one invocation wrote.

Every check returns a list of problems; an empty list means the output is
correct.  The physics checks recompute each row from the paper's laws,
independently of the program:

    sigma^2 * 2 sigma_phi^2 N^2 = 1 + 4 sigma_phi^4 N^2 D^2          (quantum)
    sigma_c^2 = (2 c^2 + g1^2 + g2^2) / (c N),  c = 1/(2 sigma_phi^2)  (classical)

with D = g1 + g2 the signed GDD sum, and compare to ``RTOL``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
"""Relative tolerance of every recomputed quantity."""

TRACEBACK = "Traceback (most recent call last)"
VERIFY_CASES = 39
"""Cases in ``verify --suite all``: 36 quadrature and 3 Monte Carlo."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def process_problems(returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if TRACEBACK in stderr:
        problems.append("traceback on stderr")
    return problems


def _rel_err(actual, expected) -> np.ndarray:
    return np.abs(actual - expected) / np.abs(expected)


def _quantum_rhs(sigma_phi, n, gdd_sum):
    return 1.0 + 4.0 * sigma_phi**4 * n**2 * gdd_sum**2


def _classical_sigma(sigma_phi, n, g1, g2):
    c = 1.0 / (2.0 * sigma_phi**2)
    return np.sqrt((2.0 * c**2 + g1**2 + g2**2) / c / n)


def _read_json(path: Path) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable JSON ({exc})"]


def _finite_numbers(value, where: str) -> list[str]:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return []
    if isinstance(value, (int, float)):
        return [] if math.isfinite(value) else [f"{where}: non-finite {value}"]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _finite_numbers(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _finite_numbers(v, f"{where}[{i}]")]
    return [f"{where}: unexpected {type(value).__name__}"]


def _read_csv(path: Path, header: list[str], rows: int) -> tuple[np.ndarray | None, list[str]]:
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            first = fh.readline().rstrip("\r\n")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable CSV ({exc})"]
    problems = []
    if first.split(",") != header:
        problems.append(f"{path.name}: header {first!r}, expected {','.join(header)!r}")
    if data.shape != (rows, len(header)):
        problems.append(f"{path.name}: shape {data.shape}, expected {(rows, len(header))}")
        return None, problems
    if not np.all(np.isfinite(data)):
        problems.append(f"{path.name}: non-finite values")
    return data, problems


def _grid_problems(name: str, values: np.ndarray, lo: float, hi: float) -> list[str]:
    ends_ok = (math.isclose(values[0], lo, rel_tol=RTOL)
               and math.isclose(values[-1], hi, rel_tol=RTOL))
    if not ends_ok:
        return [f"{name} runs {values[0]!r}..{values[-1]!r}, expected {lo!r}..{hi!r}"]
    return []


def check_scan(path: Path, sigma_phi: float, n_min: float, n_max: float, n_points: int,
               g1: float, g2: float) -> list[str]:
    """scan CSV: columns N, p_quantum = sigma_phi*sigma_q, p_classical = sigma_phi*sigma_c."""
    data, problems = _read_csv(path, ["N", "p_quantum", "p_classical"], n_points)
    if data is None:
        return problems
    n, p_q, p_c = data.T
    problems += _grid_problems(f"{path.name}: N", n, n_min, n_max)
    lhs = p_q**2 * 2.0 * n**2            # sigma^2 * 2 sigma_phi^2 N^2
    if np.max(_rel_err(lhs, _quantum_rhs(sigma_phi, n, g1 + g2))) > RTOL:
        problems.append(f"{path.name}: p_quantum breaks the width law")
    if np.max(_rel_err(p_c, sigma_phi * _classical_sigma(sigma_phi, n, g1, g2))) > RTOL:
        problems.append(f"{path.name}: p_classical breaks the shot-noise law")
    return problems


def check_surface(path: Path, sigma_phi: float, beta: float, n_min: float, n_max: float,
                  n_points: int, x_min: float, x_max: float, x_points: int,
                  clip: str) -> list[str]:
    """surface CSV: N-major grid of R_raw = sigma_q/sigma_c, x cm of medium per path."""
    data, problems = _read_csv(path, ["N", "x_cm", "R", "R_raw"], n_points * x_points)
    if data is None:
        return problems
    n, x, r, r_raw = data.T
    problems += _grid_problems(f"{path.name}: N", n[::x_points], n_min, n_max)
    problems += _grid_problems(f"{path.name}: x_cm", x[:x_points], x_min, x_max)
    g = beta * x
    sigma_c = _classical_sigma(sigma_phi, n, g, g)
    sigma_q = r_raw * sigma_c            # ratio = p_q / p_c
    lhs = sigma_q**2 * 2.0 * sigma_phi**2 * n**2
    if np.max(_rel_err(lhs, _quantum_rhs(sigma_phi, n, 2.0 * g))) > RTOL:
        problems.append(f"{path.name}: R_raw breaks the width law")
    expected_r = np.maximum(r_raw, 1.0) if clip == "unity" else r_raw
    if not np.array_equal(r, expected_r):
        problems.append(f"{path.name}: R differs from R_raw clipped with {clip!r}")
    return problems


def check_width(path: Path, sigma_phi: float, n: float, gdd_sum: float) -> list[str]:
    report, problems = _read_json(path)
    if report is None:
        return problems
    problems += _finite_numbers(report, path.name)
    if problems:
        return problems
    sigma_q = report["sigma_quantum_fs"]
    if _rel_err(report["gdd_sum_fs2"], gdd_sum) > RTOL:
        problems.append(f"{path.name}: gdd_sum_fs2 {report['gdd_sum_fs2']}, expected {gdd_sum}")
    lhs = sigma_q**2 * 2.0 * sigma_phi**2 * n**2
    if _rel_err(lhs, _quantum_rhs(sigma_phi, n, gdd_sum)) > RTOL:
        problems.append(f"{path.name}: sigma_quantum_fs breaks the width law")
    ratio = sigma_q / report["sigma_classical_shot_noise_fs"]
    if _rel_err(report["ratio_quantum_over_classical"], ratio) > RTOL:
        problems.append(f"{path.name}: ratio is not sigma_quantum / sigma_classical")
    return problems


def check_transition(path: Path, sigma_phi: float, gdd_sum: float) -> list[str]:
    report, problems = _read_json(path)
    if report is None:
        return problems
    problems += _finite_numbers(report, path.name)
    expected = 1.0 / (2.0 * sigma_phi**2 * abs(gdd_sum))
    if not problems and _rel_err(report["transition_photon_number"], expected) > RTOL:
        problems.append(f"{path.name}: transition_photon_number is not 1/(2 sigma_phi^2 |D|)")
    return problems


def check_media(path: Path, silica_beta: float) -> list[str]:
    report, problems = _read_json(path)
    if report is None:
        return problems
    problems += _finite_numbers(report, path.name)
    if problems:
        return problems
    beta = report["beta_fs2_per_cm"]
    if not (beta > 0 and report["n_minus_1"] > 0):
        problems.append(f"{path.name}: air must have n - 1 > 0 and beta > 0")
    elif _rel_err(report["length_equivalent_to_1cm_silica_m"], silica_beta / beta / 100.0) > RTOL:
        problems.append(f"{path.name}: silica-equivalent length disagrees with beta")
    return problems


def check_verify(path: Path, seed: int) -> list[str]:
    report, problems = _read_json(path)
    if report is None:
        return problems
    problems += _finite_numbers(report, path.name)
    if report.get("passed") is not True:
        problems.append(f"{path.name}: passed is not true")
    if report.get("seed") != seed:
        problems.append(f"{path.name}: seed {report.get('seed')}, expected {seed}")
    cases = report.get("cases", [])
    if len(cases) != VERIFY_CASES:
        problems.append(f"{path.name}: {len(cases)} cases, expected {VERIFY_CASES}")
    return problems


def check_manifest(out_dir: Path, command: str) -> list[str]:
    manifest, problems = _read_json(out_dir / f"{command}_manifest.json")
    if manifest is None:
        return problems
    if manifest.get("command") != command:
        problems.append(f"manifest names command {manifest.get('command')!r}")
    missing = [p for p in manifest.get("outputs", []) if not Path(p).is_file()]
    if missing or not manifest.get("outputs"):
        problems.append(f"manifest outputs missing: {missing}")
    return problems


def check_digests(out_dir: Path, expected: dict[str, str]) -> list[str]:
    problems = []
    for name, digest in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
        elif sha256(path) != digest:
            problems.append(f"{name}: SHA-256 differs from the recorded digest")
    return problems

"""Workloads: the invocations each one makes, generated from the seed.

Every workload is a closed loop with one client: a cycle of jobs, each run
as a cold process that starts only after the previous one has exited.
A job knows its arguments and how to check what it wrote.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import outputs

DEFAULT_SEED = 0
SIGMA_PHI_RAD_PER_S = 3.7e11
SIGMA_PHI = SIGMA_PHI_RAD_PER_S * 1e-15   # rad/fs
SILICA_BETA = 250.0                       # fs^2/cm, catalog value
DIGESTS = Path(__file__).with_name("digests.json")
"""SHA-256 of the CSVs the seed sources write at DEFAULT_SEED: the promise that
a refactor keeps CSV bytes identical.  The grid-fine ones depend on the grid
sizes below."""

# Grid sizes of grid-fine: ~2e5 rows each.
SCAN_POINTS = 180_000
SURFACE_N_POINTS = 400
SURFACE_X_POINTS = 500


@dataclass(frozen=True)
class Job:
    """One ``qtiming`` CLI invocation."""

    name: str
    argv: tuple[str, ...]
    checks: tuple = field(default=(), compare=False)

    def problems(self, out_dir: Path) -> list[str]:
        return [p for check in self.checks for p in check(out_dir)]


def _on(filename: str, check, *args, **kwargs):
    return lambda out_dir: check(out_dir / filename, *args, **kwargs)


def _manifest(command: str):
    return partial(outputs.check_manifest, command=command)


def _digests(workload: str, names: tuple[str, ...]):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    return partial(outputs.check_digests, expected={n: recorded[n] for n in names})


def cli_presets(seed: int) -> list[Job]:
    """The README's documented commands, in an order set by the seed.

    Their inputs do not depend on the seed, so the CSV digests recorded at
    the default seed hold at every seed and are checked on every call.
    """
    jobs = [
        Job("width-silica",
            ("width", "--sigma-phi", "3.7e11", "--n", "100",
             "--path1", "silica:1cm", "--path2", "silica:1cm"),
            (_on("width_report.json", outputs.check_width, SIGMA_PHI, 100.0,
                 2 * SILICA_BETA), _manifest("width"))),
        Job("width-B",
            ("width", "--sigma-phi", "3.7e11", "--n", "7305", "--B", "500", "--json"),
            (_on("width_report.json", outputs.check_width, SIGMA_PHI, 7305.0, 500.0),
             _manifest("width"))),
        Job("scan-fig2", ("scan", "--preset", "fig2"),
            (_on("scan.csv", outputs.check_scan, SIGMA_PHI, 1.0, 1.0e6, 121,
                 400 * SILICA_BETA, 0.0), _manifest("scan"),
             _digests("cli-presets", ("scan.csv",)))),
        Job("surface-fig3", ("surface", "--preset", "fig3"),
            (_on("surface.csv", outputs.check_surface, SIGMA_PHI, SILICA_BETA,
                 1.0, 1.0e4, 33, 0.0, 200.0, 41, "unity"), _manifest("surface"),
             _digests("cli-presets", ("surface.csv",)))),
        Job("transition", ("transition", "--preset", "ntrans-1cm"),
            (_on("transition_report.json", outputs.check_transition, SIGMA_PHI,
                 2 * SILICA_BETA), _manifest("transition"))),
        Job("media-owens",
            ("media", "--material", "air", "--formula", "owens", "--rh", "0.2"),
            (_on("media_report.json", outputs.check_media, SILICA_BETA),
             _manifest("media"))),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


def grid_fine(seed: int) -> list[Job]:
    """A fine scan and a fine surface with grid bounds jittered by the seed."""
    rng = random.Random(seed)

    def jitter(value: float) -> float:
        return value * (1.0 + 0.1 * rng.random())

    scan = dict(n_min=jitter(1.0), n_max=jitter(1.0e6))
    surface = dict(n_min=jitter(1.0), n_max=jitter(1.0e4),
                   x_min=5.0 * rng.random(), x_max=jitter(200.0))
    scan_checks = [_on("scan.csv", outputs.check_scan, SIGMA_PHI, scan["n_min"],
                       scan["n_max"], SCAN_POINTS, 400 * SILICA_BETA, 0.0), _manifest("scan")]
    surface_checks = [_on("surface.csv", outputs.check_surface, SIGMA_PHI, SILICA_BETA,
                          surface["n_min"], surface["n_max"], SURFACE_N_POINTS,
                          surface["x_min"], surface["x_max"], SURFACE_X_POINTS, "unity"),
                      _manifest("surface")]
    if seed == DEFAULT_SEED:
        scan_checks.append(_digests("grid-fine", ("scan.csv",)))
        surface_checks.append(_digests("grid-fine", ("surface.csv",)))
    return [
        Job("scan-fine",
            ("scan", "--sigma-phi", "3.7e11", "--path1", "silica:400cm",
             "--n-min", repr(scan["n_min"]), "--n-max", repr(scan["n_max"]),
             "--n-points", str(SCAN_POINTS)), tuple(scan_checks)),
        Job("surface-fine",
            ("surface", "--sigma-phi", "3.7e11", "--beta", "250",
             "--n-min", repr(surface["n_min"]), "--n-max", repr(surface["n_max"]),
             "--n-points", str(SURFACE_N_POINTS),
             "--x-min", repr(surface["x_min"]), "--x-max", repr(surface["x_max"]),
             "--x-points", str(SURFACE_X_POINTS), "--clip", "unity"), tuple(surface_checks)),
    ]


def verify_all(seed: int) -> list[Job]:
    """The full verification suite, with the workload seed as its seed.

    The suite's 3-sigma sampler check fails by design on about 0.7 % of
    seeds (the first is 383); on such a seed every invocation counts as
    failed.
    """
    return [Job("verify-all", ("verify", "--suite", "all", "--seed", str(seed)),
                (_on("verification_report.json", outputs.check_verify, seed),
                 _manifest("verify")))]


WORKLOADS = {
    "cli-presets": cli_presets,
    "grid-fine": grid_fine,
    "verify-all": verify_all,
}

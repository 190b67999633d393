"""Command-line front end.

Subcommands compute widths, sweep photon numbers, grid the quantum/classical
ratio, locate transition photon numbers, evaluate air dispersion, and run
the numerical verification suites.  Every command writes one CSV or JSON
report, then a run manifest (JSON) listing its parameters with units and
that file, so a run can be reproduced from the manifest alone; an output
path that cannot be opened is a usage error.  CSV output is RFC-4180
style with '.' decimals and shortest-roundtrip float formatting, byte
identical across reruns with equal parameters.

Exit codes: 0 success, 1 usage error, 2 domain/validation error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._cpus import usable_cpus
from .distributions import (
    StateKind,
    StateSpec,
    TimingDistribution,
    TimingVariable,
    asymptotic_width,
    classical_shot_noise,
    classical_width,
    quantum_distribution,
    quantum_width,
    transition_photon_number,
)
from .errors import ConvergenceError, DomainError
from .media import (
    AIR_FORMULAS,
    AirConditions,
    MediumSegment,
    PathPair,
    air_dispersion_coefficient,
    catalog_segment,
    material_catalog,
    reference_air_beta,
)
from .spectral import GaussianSpectrum

MANIFEST_SCHEMA = "qtiming.run-manifest/1"
REPORT_SCHEMA = "qtiming.verification-report/1"
OUT_DIR_ENV = "QTIMING_OUT_DIR"

_LENGTH_UNITS_CM = {"cm": 1.0, "m": 100.0, "km": 100_000.0}
_SEGMENT_RE = re.compile(r"^([A-Za-z_][\w]*):([0-9.eE+\-]+)(cm|m|km)$")
_MATERIAL_ALIASES = {"silica": "fused_silica"}
_CSV_BLOCK_ROWS = 2048


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _open_output(args, filename: str):
    """``(path, file)`` for ``filename`` in the output directory; an OSError is a usage error."""
    out = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
        return out / filename, (out / filename).open("wb")
    except OSError as exc:
        raise argparse.ArgumentError(None, f"cannot write {exc.filename}: {exc.strerror}") from None


def _write_json(args, filename: str, payload: dict) -> Path:
    path, fh = _open_output(args, filename)
    with fh:
        fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
    return path


def _write_manifest(args, parameters: dict, output: Path) -> None:
    _write_json(args, f"{args.command}_manifest.json", {
        "schema": MANIFEST_SCHEMA,
        "command": args.command,
        "parameters": parameters,
        "artifact_version": __version__,
        "outputs": [str(output)],
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    })


def _write_report(args, filename: str, payload: dict, parameters: dict) -> Path:
    """Write ``payload`` as the JSON report ``filename``, then its manifest."""
    path = _write_json(args, filename, payload)
    _write_manifest(args, parameters, path)
    return path


def _format_block(column_slices) -> str:
    """CSV rows, CRLF-terminated, of equal-length float64 column slices.

    Each distinct float64 bit pattern is formatted once (bit patterns, so
    ``-0.0`` and ``0.0`` keep their own text): a ``surface`` block repeats
    a few N values, the x grid, and ``R`` wherever it equals ``R_raw``.
    """
    block = np.column_stack(column_slices)
    bits, inverse = np.unique(block.view(np.uint64).ravel(), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    row_format = ",".join(["%s"] * block.shape[1]) + "\r\n"
    return row_format * len(block) % tuple(text[inverse].tolist())


def _row_shares(n_rows: int) -> list[range]:
    """Rows split into contiguous runs of whole blocks, one run per usable CPU.

    One run where ``os.fork`` does not exist, and never more runs than
    blocks, so a grid of one block is written by one process.
    """
    n_blocks = -(-n_rows // _CSV_BLOCK_ROWS)
    n_shares = max(1, min(n_blocks, usable_cpus() if hasattr(os, "fork") else 1))
    edges = [k * n_blocks // n_shares * _CSV_BLOCK_ROWS for k in range(n_shares)] + [n_rows]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _write_share(fh, columns, rows: range) -> None:
    for start in range(rows.start, rows.stop, _CSV_BLOCK_ROWS):
        fh.write(_format_block([c[start:start + _CSV_BLOCK_ROWS] for c in columns]).encode())


def _fork_share(columns, rows: range):
    """Format ``rows`` in a forked child into an anonymous temporary file.

    Returns ``(pid, file)``.  The child never returns: it exits with status
    0 once the file holds its rows, 1 after printing any exception.
    """
    tmp = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        tmp.close()
        raise
    if pid == 0:
        status = 1
        try:
            _write_share(tmp, columns, rows)
            tmp.flush()
            status = 0
        except BaseException:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    return pid, tmp


def _write_csv(args, header: list[str], columns, parameters: dict) -> None:
    """Write equal-length float columns to the ``--out`` CSV, plus its manifest.

    Every cell is the shortest round-trip ``repr`` of a Python float, and
    every row ends in CRLF: the bytes ``csv.writer`` gives for the rows as
    lists of floats.  The header names are plain identifiers, so joining
    them with commas needs no quoting.

    Rows are formatted in blocks of ``_CSV_BLOCK_ROWS`` by
    :func:`_format_block`, and the blocks are split into one contiguous
    share per usable CPU (:func:`_row_shares`).  Before formatting, this
    process forks one child per share after the first; each child writes
    its share into an anonymous temporary file opened before the fork.
    This process writes the header and the first share straight into the
    CSV, then waits for the children in share order and appends each one's
    file, so the bytes are those of one serial pass.  The CSV is opened
    first, so an unwritable path forks and removes nothing; if a child
    fails, the partial CSV is removed and no manifest is written.  Only one
    block's strings are alive at a time in each process, so memory does not
    grow with the grid.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n_rows = len(columns[0])
    first, *rest = _row_shares(n_rows)
    path, fh = _open_output(args, args.out)
    children = []
    try:
        with fh:
            for rows in rest:
                children.append((rows, *_fork_share(columns, rows)))
            fh.write((",".join(header) + "\r\n").encode())
            _write_share(fh, columns, first)
            while children:
                rows, pid, tmp = children.pop(0)
                with tmp:
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if status != 0:
                        raise RuntimeError(
                            f"CSV formatter for rows {rows.start}-{rows.stop - 1} "
                            f"(pid {pid}) exited with status {status}")
                    tmp.seek(0)
                    shutil.copyfileobj(tmp, fh)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    finally:
        for _, pid, tmp in children:
            tmp.close()
            os.waitpid(pid, 0)
    _write_manifest(args, parameters, path)
    print(f"wrote {path} ({n_rows} rows)")


def _parse_segment(text: str) -> MediumSegment:
    match = _SEGMENT_RE.match(text)
    if match is None:
        raise DomainError(
            f"bad path segment {text!r}: expected MATERIAL:LENGTH with an explicit "
            "unit suffix, e.g. silica:1cm, air:10km"
        )
    material, length_str, unit = match.groups()
    try:
        length_cm = float(length_str) * _LENGTH_UNITS_CM[unit]
    except ValueError:
        raise DomainError(f"bad path segment {text!r}: {length_str!r} is not a number") from None
    material = _MATERIAL_ALIASES.get(material, material)
    if material == "air":
        return MediumSegment(label="air", alpha=0.0, beta=reference_air_beta(), length=length_cm)
    return catalog_segment(material, length_cm)


def _symmetric_paths(gdd_total: float) -> PathPair:
    """A bare total GDD (fs^2), split evenly over two single-segment paths."""
    half = MediumSegment("aggregate", alpha=0.0, beta=gdd_total / 2.0, length=1.0)
    return PathPair([half], [half])


def _paths_from_args(parser: _Parser, args) -> tuple[PathPair, float]:
    """Resolve media flags into a PathPair; returns (paths, gdd_sum fs^2)."""
    has_paths = bool(args.path1 or args.path2)
    has_b = args.B is not None
    if has_paths and has_b:
        parser.error("--B conflicts with --path1/--path2; give one or the other")
    if not has_paths and not has_b:
        parser.error("media unspecified: give --B or --path1/--path2 explicitly")
    if has_b:
        return _symmetric_paths(args.B), args.B
    path1 = [_parse_segment(s) for s in (args.path1 or [])]
    path2 = [_parse_segment(s) for s in (args.path2 or [])]
    paths = PathPair(path1, path2)
    _, gdd1, _, gdd2 = paths.coefficients()
    return paths, gdd1 + gdd2


def _photon_grid(parser: _Parser, args) -> np.ndarray:
    """Log-spaced photon numbers from --n-min/--n-max/--n-points."""
    if args.n_min is None or args.n_max is None:
        parser.error("--n-min and --n-max are required")
    if not 0 < args.n_min <= args.n_max < math.inf:
        parser.error("need 0 < n-min <= n-max < inf")
    if args.n_points < 1:
        parser.error("--n-points must be >= 1")
    if args.n_points == 1:
        return np.array([float(args.n_min)])
    return np.logspace(math.log10(args.n_min), math.log10(args.n_max), args.n_points)


def _spectrum_from_args(parser: _Parser, args) -> GaussianSpectrum:
    if args.sigma_phi is None:
        parser.error("--sigma-phi (rad/s) is required")
    return GaussianSpectrum.from_si(args.sigma_phi, wavelength_nm=args.wavelength)


def _state_from_args(parser: _Parser, args) -> StateSpec:
    kind = StateKind(args.state)
    if kind is StateKind.ENTANGLED_COHERENT:
        if args.v is None or args.u is None:
            parser.error("--state coherent needs --v and --u magnitudes")
        return StateSpec(kind=kind, n_photons=args.n, v_mag=args.v, u_mag=args.u)
    if args.v is not None or args.u is not None:
        parser.error("--v/--u apply only to --state coherent")
    return StateSpec(kind=kind, n_photons=args.n)


def _media_params(args) -> dict:
    return {
        "sigma_phi_rad_per_s": args.sigma_phi,
        "B_fs2": args.B,
        "path1": list(args.path1 or []),
        "path2": list(args.path2 or []),
        "wavelength_nm": args.wavelength,
    }


def _emit(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {value}")


def _add_media_flags(sub: _Parser) -> None:
    sub.add_argument("--sigma-phi", type=float, default=None,
                     help="spectral one-sigma width, rad/s")
    sub.add_argument("--wavelength", type=float, default=800.0,
                     help="carrier wavelength, nm (default 800)")
    sub.add_argument("--B", type=float, default=None,
                     help="total group-delay dispersion beta1*x1 + beta2*x2, fs^2 "
                          "(split evenly over the two paths); conflicts with --path*")
    sub.add_argument("--path1", action="append", metavar="MATERIAL:LENGTH",
                     help="segment of path 1, e.g. silica:1cm or air:10km (repeatable)")
    sub.add_argument("--path2", action="append", metavar="MATERIAL:LENGTH",
                     help="segment of path 2 (repeatable)")


# -- width --------------------------------------------------------------------

def _cmd_width(parser: _Parser, args) -> int:
    spectrum = _spectrum_from_args(parser, args)
    paths, gdd_sum = _paths_from_args(parser, args)
    state = _state_from_args(parser, args)

    dist = quantum_distribution(state, spectrum, paths)
    _, gdd1, _, gdd2 = paths.coefficients()
    sigma_t = classical_width(spectrum.sigma_phi, gdd1, gdd2)
    sigma_c = classical_shot_noise(sigma_t, state.n_photons)

    payload = {
        "state": state.kind.value,
        "variable": dist.variable.value,
        "n_photons": state.n_photons,
        "gdd_sum_fs2": gdd_sum,
        "mean_fs": dist.mean,
        "sigma_quantum_fs": dist.sigma,
        "sigma_classical_pulse_fs": sigma_t,
        "sigma_classical_shot_noise_fs": sigma_c,
        "ratio_quantum_over_classical": dist.sigma / sigma_c,
        "asymptotic_width_fs": asymptotic_width(spectrum.sigma_phi, gdd_sum),
        "amplitude_scale": dist.amplitude_scale,
    }
    _write_report(args, "width_report.json", payload,
                  {**_media_params(args), "n": args.n, "state": args.state,
                   "v": args.v, "u": args.u})
    _emit(args, payload)
    return 0


# -- scan ---------------------------------------------------------------------

def _cmd_scan(parser: _Parser, args) -> int:
    spectrum = _spectrum_from_args(parser, args)
    paths, gdd_sum = _paths_from_args(parser, args)
    n = _photon_grid(parser, args)

    sigma_phi = spectrum.sigma_phi
    _, gdd1, _, gdd2 = paths.coefficients()
    sigma_t = classical_width(sigma_phi, gdd1, gdd2)
    columns = (n, sigma_phi * quantum_width(sigma_phi, n, gdd_sum),
               sigma_phi * classical_shot_noise(sigma_t, n))

    _write_csv(args, ["N", "p_quantum", "p_classical"], columns,
               {**_media_params(args), "n_min": args.n_min, "n_max": args.n_max,
                "n_points": args.n_points, "out": args.out})
    return 0


# -- surface ------------------------------------------------------------------

def _cmd_surface(parser: _Parser, args) -> int:
    if args.sigma_phi is None:
        parser.error("--sigma-phi (rad/s) is required")
    if args.beta is None:
        parser.error("--beta (fs^2/cm) is required")
    n_values = _photon_grid(parser, args)
    if args.x_min is None or args.x_max is None:
        parser.error("--x-min and --x-max are required")
    if not 0 <= args.x_min <= args.x_max < math.inf:
        parser.error("need 0 <= x-min <= x-max < inf")
    if args.x_points < 1:
        parser.error("--x-points must be >= 1")
    # Built only for their checks: finite, positive sigma_phi and finite beta.
    sigma_phi = GaussianSpectrum.from_si(args.sigma_phi).sigma_phi
    beta = MediumSegment("surface", alpha=0.0, beta=args.beta, length=0.0).beta

    # N-major grid with x cm of the medium in each path: total GDD 2*beta*x,
    # classical per-path products beta*x each.
    n, x = np.meshgrid(n_values, np.linspace(args.x_min, args.x_max, args.x_points),
                       indexing="ij")
    # A GDD that overflows is left to the closed forms, which reject a width
    # that is not finite.
    with np.errstate(over="ignore"):
        gdd_path = beta * x
        ratio = (quantum_width(sigma_phi, n, 2.0 * gdd_path)
                 / classical_shot_noise(classical_width(sigma_phi, gdd_path, gdd_path), n))
    clipped = np.maximum(ratio, 1.0) if args.clip == "unity" else ratio

    _write_csv(
        args, ["N", "x_cm", "R", "R_raw"], [a.ravel() for a in (n, x, clipped, ratio)],
        {"sigma_phi_rad_per_s": args.sigma_phi, "beta_fs2_per_cm": args.beta,
         "n_min": args.n_min, "n_max": args.n_max, "n_points": args.n_points,
         "x_min_cm": args.x_min, "x_max_cm": args.x_max, "x_points": args.x_points,
         "clip": args.clip, "out": args.out})
    return 0


# -- transition ---------------------------------------------------------------

def _cmd_transition(parser: _Parser, args) -> int:
    spectrum = _spectrum_from_args(parser, args)
    _, gdd_sum = _paths_from_args(parser, args)
    n_t = transition_photon_number(spectrum.sigma_phi, gdd_sum)

    silica_beta = material_catalog()["fused_silica"].beta
    payload = {
        "gdd_sum_fs2": gdd_sum,
        "transition_photon_number": n_t,
        "equivalent_silica_total_cm": abs(gdd_sum) / silica_beta,
        "equivalent_air_total_m": abs(gdd_sum) / reference_air_beta() / 100.0,
    }
    if not math.isfinite(payload["equivalent_air_total_m"]):
        raise DomainError(f"the air length equivalent to gdd_sum {gdd_sum} fs^2 overflows float64")
    _write_report(args, "transition_report.json", payload, _media_params(args))
    _emit(args, payload)
    return 0


# -- media --------------------------------------------------------------------

def _cmd_media(parser: _Parser, args) -> int:
    # The manifest's parameters, which an air report also starts with.
    parameters = {"material": args.material, "formula": args.formula,
                  "wavelength_nm": args.wavelength, "temperature_c": args.temperature,
                  "pressure_pa": args.pressure, "relative_humidity": args.rh}
    # Built for every material, so that no report records an unphysical condition.
    conditions = AirConditions(
        temperature_c=args.temperature,
        pressure_pa=args.pressure,
        relative_humidity=args.rh,
        wavelength_nm=args.wavelength,
    )
    material = _MATERIAL_ALIASES.get(args.material, args.material)
    catalog = material_catalog()
    silica_beta = catalog["fused_silica"].beta
    if material == "air":
        refractivity = AIR_FORMULAS[args.formula](conditions)
        beta = air_dispersion_coefficient(conditions, formula=args.formula)
        payload = {
            **parameters,
            "n_minus_1": refractivity,
            "beta_fs2_per_cm": beta,
            "length_equivalent_to_1cm_silica_m": silica_beta / beta / 100.0,
        }
    else:
        if material not in catalog:
            raise DomainError(f"unknown material {args.material!r}; catalog has {sorted(catalog)} plus 'air'")
        entry = catalog[material]
        payload = {
            "material": entry.label,
            "alpha_fs_per_cm": entry.alpha,
            "beta_fs2_per_cm": entry.beta,
            "note": entry.note,
        }
        if entry.beta != 0:
            payload["length_equivalent_to_1cm_silica_cm"] = silica_beta / entry.beta
    _write_report(args, "media_report.json", payload, parameters)
    _emit(args, payload)
    return 0


# -- verify -------------------------------------------------------------------

def _run_quadrature_suite(max_points: int | None) -> list[dict]:
    from .oracle import QuadratureSpec, verify_closed_form

    tolerance = 1e-6
    spectrum = GaussianSpectrum.from_si(3.7e11)
    quad = QuadratureSpec(max_points=max_points) if max_points is not None else QuadratureSpec()
    cases = []
    for kind, n, gdd_total in itertools.product(StateKind, (1, 3, 10, 100), (0.0, 500.0, 1.0e5)):
        magnitudes = (1.2, 0.8) if kind is StateKind.ENTANGLED_COHERENT else (None, None)
        state = StateSpec(kind, n, *magnitudes)
        sigma = quantum_width(spectrum.sigma_phi, n, gdd_total)
        grid = np.linspace(-5.0 * sigma, 5.0 * sigma, 41)
        case = {"name": f"{kind.value}/N={n}/gdd={gdd_total:g}", "tolerance": tolerance}
        try:
            report = verify_closed_form(state, spectrum, _symmetric_paths(gdd_total), grid, quad)
            case["max_rel_err"] = report.max_rel_err
            case["points_used"] = report.points_used
            case["passed"] = report.max_rel_err < tolerance
        except ConvergenceError as exc:
            case["error"] = str(exc)
            case["achieved"] = exc.achieved
            case["passed"] = False
        cases.append(case)
    return cases


def _run_montecarlo_suite(seed: int) -> list[dict]:
    from .montecarlo import SamplerConfig, sample_classical, sample_quantum

    cases = []

    # Scaling of the classical averaging law with photon number.
    widths = []
    photon_numbers = (1, 10, 100, 1000)
    for n in photon_numbers:
        estimate = sample_classical(1.0, SamplerConfig(seed=seed, n_samples=100_000, n_photons=n))
        widths.append(estimate.sigma_hat)
    slope = float(np.polyfit(np.log10(photon_numbers), np.log10(widths), 1)[0])
    cases.append({
        "name": "classical-averaging-slope",
        "slope": slope,
        "tolerance": 0.02,
        "passed": abs(slope + 0.5) < 0.02,
    })

    # Quantum sampler consistency with the closed form.
    dist = TimingDistribution(
        variable=TimingVariable.MEAN_TIME_DIFFERENCE, mean=25.0, sigma=3.5)
    estimate = sample_quantum(dist, SamplerConfig(seed=seed, n_samples=100_000))
    sigma_ok = abs(estimate.sigma_hat - dist.sigma) < 3.0 * estimate.standard_error
    mean_ok = abs(estimate.mean_hat - dist.mean) < 3.0 * estimate.mean_standard_error
    cases.append({
        "name": "quantum-sampler-consistency",
        "estimate": estimate.to_dict(),
        "sigma_expected": dist.sigma,
        "passed": bool(sigma_ok and mean_ok),
    })

    # Determinism: identical seeds give bit-identical estimates.
    repeat = sample_quantum(dist, SamplerConfig(seed=seed, n_samples=100_000))
    cases.append({
        "name": "determinism-per-seed",
        "passed": repeat == estimate,
    })
    return cases


def _cmd_verify(parser: _Parser, args) -> int:
    cases: list[dict] = []
    if args.suite in ("quadrature", "all"):
        cases.extend(_run_quadrature_suite(args.max_points))
    if args.suite in ("montecarlo", "all"):
        cases.extend(_run_montecarlo_suite(args.seed))
    passed = all(case["passed"] for case in cases)

    report = {
        "schema": REPORT_SCHEMA,
        "suite": args.suite,
        "seed": args.seed,
        "cases": cases,
        "passed": passed,
    }
    report_path = _write_report(args, args.out, report,
                                {"suite": args.suite, "seed": args.seed,
                                 "max_points": args.max_points, "out": args.out})

    for case in cases:
        status = "pass" if case["passed"] else "FAIL"
        detail = ""
        if "max_rel_err" in case:
            detail = f"  max_rel_err={case['max_rel_err']:.3e}"
        elif "error" in case:
            detail = f"  {case['error']}"
        print(f"[{status}] {case['name']}{detail}")
    print(f"verification {'passed' if passed else 'FAILED'}; report: {report_path}")
    return 0 if passed else 3


# -- presets ------------------------------------------------------------------

_PRESETS = {
    "scan": {
        "fig2": {"sigma_phi": 3.7e11, "path1": ["silica:400cm"], "path2": [],
                 "n_min": 1.0, "n_max": 1.0e6, "n_points": 121},
    },
    "surface": {
        "fig3": {"sigma_phi": 3.7e11, "beta": 250.0,
                 "n_min": 1.0, "n_max": 1.0e4, "n_points": 33,
                 "x_min": 0.0, "x_max": 200.0, "x_points": 41, "clip": "unity"},
    },
    "transition": {
        "ntrans-1cm": {"sigma_phi": 3.7e11, "path1": ["silica:1cm"], "path2": ["silica:1cm"]},
    },
}

# Defaults filled after the preset, by the same rule, so that a preset can
# replace them; argparse defaults would count as set.
_UNSET_DEFAULTS = {"scan": {"n_points": 61},
                   "surface": {"n_points": 33, "x_points": 41, "clip": "none"}}


def _apply_preset(args) -> None:
    """Fill each flag left unset (None or []) from the chosen preset, then ``_UNSET_DEFAULTS``."""
    preset = _PRESETS.get(args.command, {}).get(getattr(args, "preset", None), {})
    for key, value in [*preset.items(), *_UNSET_DEFAULTS.get(args.command, {}).items()]:
        if getattr(args, key, None) in (None, [],):
            setattr(args, key, value)


# -- entry point --------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="qtiming",
        description="Arrival-time statistics of frequency-entangled photon "
                    "states in dispersive media",
    )
    parser.add_argument("--version", action="version", version=f"qtiming {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    width = sub.add_parser("width", help="widths and quantum/classical ratio for one configuration")
    _add_media_flags(width)
    width.add_argument("--n", type=float, required=True, help="photons per arm (>= 1)")
    width.add_argument("--state", choices=[k.value for k in StateKind], default="anti",
                       help="entangled state family (default anti)")
    width.add_argument("--v", type=float, default=None, help="coherent |v| (coherent state only)")
    width.add_argument("--u", type=float, default=None, help="coherent |u| (coherent state only)")
    width.set_defaults(func=_cmd_width)

    scan = sub.add_parser("scan", help="sweep photon number; CSV of dimensionless widths")
    _add_media_flags(scan)
    scan.add_argument("--n-min", type=float, default=None)
    scan.add_argument("--n-max", type=float, default=None)
    scan.add_argument("--n-points", type=int, default=None, help="log-spaced points (default 61)")
    scan.add_argument("--out", default="scan.csv", help="CSV filename (default scan.csv)")
    scan.set_defaults(func=_cmd_scan)

    surface = sub.add_parser(
        "surface",
        help="grid of quantum/classical width ratio over photon number and "
             "propagation distance (x cm of the medium in each path)",
    )
    surface.add_argument("--sigma-phi", type=float, default=None, help="spectral width, rad/s")
    surface.add_argument("--beta", type=float, default=None,
                         help="medium dispersion coefficient, fs^2/cm")
    surface.add_argument("--n-min", type=float, default=None)
    surface.add_argument("--n-max", type=float, default=None)
    surface.add_argument("--n-points", type=int, default=None, help="default 33")
    surface.add_argument("--x-min", type=float, default=None, help="cm")
    surface.add_argument("--x-max", type=float, default=None, help="cm")
    surface.add_argument("--x-points", type=int, default=None, help="default 41")
    surface.add_argument("--clip", choices=["none", "unity"], default=None,
                         help="clip ratios below 1 to 1.0 in the R column "
                              "(raw kept in R_raw; default none)")
    surface.add_argument("--out", default="surface.csv", help="CSV filename (default surface.csv)")
    surface.set_defaults(func=_cmd_surface)

    transition = sub.add_parser("transition", help="photon number where dispersion "
                                                   "broadening overtakes the bandwidth term")
    _add_media_flags(transition)
    transition.set_defaults(func=_cmd_transition)

    verify = sub.add_parser("verify", help="run the numerical verification suites")
    verify.add_argument("--suite", choices=["quadrature", "montecarlo", "all"], default="all")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--max-points", type=int, default=None,
                        help="override the quadrature evaluation budget")
    verify.add_argument("--out", default="verification_report.json")
    verify.set_defaults(func=_cmd_verify)

    media = sub.add_parser("media", help="dispersion coefficient of a medium")
    media.add_argument("--material", required=True,
                       help="'air' or a catalog material (fused_silica, vacuum)")
    media.add_argument("--formula", choices=AIR_FORMULAS, default="edlen",
                       help="air-index formula (air only; default edlen)")
    media.add_argument("--wavelength", type=float, default=800.0, help="nm (default 800)")
    media.add_argument("--temperature", type=float, default=15.0, help="deg C (default 15)")
    media.add_argument("--pressure", type=float, default=101325.0, help="Pa (default 101325)")
    media.add_argument("--rh", type=float, default=0.0, help="relative humidity fraction (default 0)")
    media.set_defaults(func=_cmd_media)

    # Last on every subcommand, so each help lists them after its own flags.
    for name, command in sub.choices.items():
        if name in _PRESETS:
            command.add_argument("--preset", choices=_PRESETS[name],
                                 help="named parameter bundle pinned by the verification suite")
        command.add_argument("--out-dir", default=None,
                             help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        command.add_argument("--json", action="store_true", help="print the report as JSON")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_preset(args)
    try:
        return args.func(parser, args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except ConvergenceError as exc:
        print(f"qtiming: convergence failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"qtiming: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

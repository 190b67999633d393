"""Command-line front end.

Subcommands compute widths, sweep photon numbers, grid the quantum/classical
ratio, locate transition photon numbers, evaluate air dispersion, and run
the numerical verification suites.  Every command writes one CSV or JSON
report, then a run manifest (JSON) listing its parameters with units and
that file, so a run can be reproduced from the manifest alone.  CSV output
is RFC-4180 style with '.' decimals and shortest-roundtrip float
formatting, byte identical across reruns with equal parameters.

Exit codes: 0 success; 1 usage: an argparse error, a missing or conflicting
flag or a grid over 2^22 rows (checked once, after any preset, and shown
with the command's usage line), or an output that cannot be written (the
partial file removed, no manifest) or has closed (what was written before
stays); 2 domain: any value out of range, grid bounds and counts included;
3 verification failure.

Run as the program (``qtiming`` or ``python -m qtiming``), it starts
OpenBLAS with one thread unless a BLAS thread variable is already set, and
it freezes the heap (``gc.freeze``) when it is done, so that the
interpreter's exit skips collecting objects the OS reclaims anyway.
``main(argv)`` called in-process, and the library, do neither.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import re
import stat
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._cpus import usable_cpus
from .constants import omega_from_wavelength_nm, sigma_phi_from_rad_per_s
from .distributions import (
    MAX_PHOTON_NUMBER,
    StateKind,
    StateSpec,
    asymptotic_width,
    classical_shot_noise,
    classical_width,
    quantum_distribution,
    quantum_width,
    transition_photon_number,
    width_ratio,
)
from .errors import DomainError
from .media import (
    AIR_FORMULAS,
    CATALOG_WAVELENGTH_NM,
    AirConditions,
    MediumSegment,
    PathPair,
    air_dispersion_coefficient,
    air_length_m,
    catalog_segment,
    material_catalog,
    reference_air_beta,
    resolve_material,
)
from .spectral import GaussianSpectrum
from .verify import SUITES

MANIFEST_SCHEMA = "qtiming.run-manifest/1"
REPORT_SCHEMA = "qtiming.verification-report/1"
OUT_DIR_ENV = "QTIMING_OUT_DIR"

_LENGTH_UNITS_CM = {"cm": 1.0, "m": 100.0, "km": 100_000.0}
_SEGMENT_RE = re.compile(r"^([A-Za-z_][\w]*):([0-9.eE+\-]+)(cm|m|km)$")
_CSV_BLOCK_ROWS = 2048
# Rows a scan or surface grid may have.  At its peak a grid holds about
# seven float64 values per row (surface: N, x, the GDD, R, R_raw and the
# closed forms' temporaries; scan: four), 56 B, so the cap bounds the
# arrays at 224 MiB, twenty times grid-fine's 2e5-row grids.
_MAX_GRID_ROWS = 1 << 22
# The flags each command needs.  argparse cannot require them, because a
# preset fills them in after parsing.
_REQUIRED_FLAGS = {"width": ("--sigma-phi",), "transition": ("--sigma-phi",),
                   "scan": ("--sigma-phi", "--n-min", "--n-max"),
                   "surface": ("--sigma-phi", "--beta", "--n-min", "--n-max", "--x-min", "--x-max")}
# The commands that print a report, and so take --json.
_REPORT_COMMANDS = ("width", "transition", "media")
# What a negative number after a flag looks like.  Python 3.11's argparse
# accepts only -\d+ and -\d*\.\d+, so it takes -1e5, -5. or -inf for a flag.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)
# The variables OpenBLAS reads its thread count from, in its order of precedence.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Parsed names that are not parameters of the computation, and the manifest
# keys of the flags whose names carry no unit.
_NOT_PARAMETERS = ("command", "func", "preset", "out_dir", "json")
_PARAMETER_KEYS = {"sigma_phi": "sigma_phi_rad_per_s", "B": "B_fs2", "wavelength": "wavelength_nm",
                   "beta": "beta_fs2_per_cm", "x_min": "x_min_cm", "x_max": "x_max_cm",
                   "temperature": "temperature_c", "pressure": "pressure_pa",
                   "rh": "relative_humidity"}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2.

    A flag's value that starts like a negative float (``-1e5``, ``-5.``,
    ``-inf``) is read as the value, not as another flag.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _output(args, filename: str):
    """Open ``filename`` in the output directory as ``(path, file)`` for a ``with`` block.

    An OSError from creating the directory, opening the file or writing it
    in the block is a usage error, ``cannot write <path>: <reason>``; a
    BrokenPipeError is left to :func:`main`.  If the block raises, the
    partial file is removed, but only while ``path`` still names the
    regular file that was opened: a symlink, a device or a pipe given as
    the output is left in place.
    """
    out = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    path = out / filename
    try:
        out.mkdir(parents=True, exist_ok=True)
        fh = path.open("wb")
    except OSError as exc:
        raise argparse.ArgumentError(None, f"cannot write {exc.filename}: {exc.strerror}") from None
    opened = os.fstat(fh.fileno())
    try:
        with fh:
            yield path, fh
    except BaseException as exc:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(os.lstat(path), opened):
                path.unlink()
        if isinstance(exc, OSError) and not isinstance(exc, BrokenPipeError):
            raise argparse.ArgumentError(
                None, f"cannot write {exc.filename or path}: {exc.strerror}") from None
        raise


def _dump_json(fh, payload: dict) -> None:
    fh.write((json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())


def _write_json(args, filename: str, payload: dict) -> Path:
    with _output(args, filename) as (path, fh):
        _dump_json(fh, payload)
    return path


def _parameters(args) -> dict:
    """The command's flags, in flag order, keyed with their units: the manifest's parameters."""
    return {_PARAMETER_KEYS.get(name, name): value
            for name, value in vars(args).items() if name not in _NOT_PARAMETERS}


def _write_manifest(args, output: Path) -> None:
    _write_json(args, f"{args.command}_manifest.json", {
        "schema": MANIFEST_SCHEMA,
        "command": args.command,
        "parameters": _parameters(args),
        "artifact_version": __version__,
        "outputs": [str(output)],
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
    })


def _report(args, payload: dict) -> int:
    """Write ``payload`` as ``<command>_report.json`` and its manifest, then print it.

    The print is the report's JSON with ``--json``, else one aligned
    ``key  value`` line per entry.  Returns the exit code, 0.
    """
    path = _write_json(args, f"{args.command}_report.json", payload)
    _write_manifest(args, path)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {value}")
    return 0


def _format_block(column_slices) -> str:
    """CSV rows, CRLF-terminated, of equal-length float64 column slices.

    Each distinct float64 bit pattern is formatted once (bit patterns, so
    ``-0.0`` and ``0.0`` keep their own text): a ``surface`` block repeats
    a few N values, the x grid, and ``R`` wherever it equals ``R_raw``.
    """
    import numpy as np

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

    Returns ``(pid, file)``.  The child never returns and prints nothing: it
    exits with status 0 once the file holds its rows, and with status 1 if
    anything fails, which :func:`_write_csv` meets by formatting the share
    itself.
    """
    import tempfile

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
        finally:
            os._exit(status)
    return pid, tmp


def _write_csv(args, header: list[str], columns) -> None:
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
    file, so the bytes are those of one serial pass.  The children are only
    a speed-up: when one exits with any status but 0 (a full ``TMPDIR``, a
    signal), this process formats its share straight into the CSV in its
    place, so a failed child costs time, not the run, and every write error
    is the CSV's own, reported by :func:`_output`.  The CSV is opened first,
    so an unwritable path forks and removes nothing.  If a write fails, the
    children still formatting are killed and reaped, the partial CSV is
    removed and no manifest is written.  Only one block's strings are alive
    at a time in each process, so memory does not grow with the grid.
    """
    import shutil

    import numpy as np

    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n_rows = len(columns[0])
    first, *rest = _row_shares(n_rows)
    with _output(args, args.out) as (path, fh):
        children = []
        try:
            for rows in rest:
                children.append((rows, *_fork_share(columns, rows)))
            fh.write((",".join(header) + "\r\n").encode())
            _write_share(fh, columns, first)
            while children:
                # Dropped only once reaped, so an interrupted wait still kills it.
                rows, pid, tmp = children[0]
                status = os.waitpid(pid, 0)[1]
                children.pop(0)
                with tmp:
                    if status == 0:
                        tmp.seek(0)
                        shutil.copyfileobj(tmp, fh)
                    else:
                        _write_share(fh, columns, rows)
        finally:
            if children:
                import signal

                for _, pid, tmp in children:
                    tmp.close()
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    _write_manifest(args, path)
    print(f"wrote {path} ({n_rows} rows)")


def _parse_segment(text: str, wavelength_nm: float) -> MediumSegment:
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
    return catalog_segment(material, length_cm, wavelength_nm)


def _paths_from_args(args) -> tuple[PathPair, float]:
    """Resolve media flags at --wavelength into a PathPair; returns (paths, gdd_sum fs^2)."""
    omega_from_wavelength_nm(args.wavelength)  # its check, with or without paths
    if args.B is not None:
        return PathPair.symmetric(args.B), args.B
    paths = PathPair([_parse_segment(s, args.wavelength) for s in args.path1],
                     [_parse_segment(s, args.wavelength) for s in args.path2])
    _, gdd1, _, gdd2 = paths.coefficients()
    return paths, gdd1 + gdd2


def _photon_grid(args):
    """Log-spaced photon numbers from --n-min/--n-max/--n-points."""
    import numpy as np

    if not 1 <= args.n_min <= args.n_max <= MAX_PHOTON_NUMBER:
        raise DomainError(f"need 1 <= n-min <= n-max <= {MAX_PHOTON_NUMBER:g}, "
                          f"got {args.n_min} and {args.n_max}")
    if args.n_points < 1:
        raise DomainError(f"--n-points must be >= 1, got {args.n_points}")
    if args.n_points == 1:
        return np.array([float(args.n_min)])
    return np.logspace(math.log10(args.n_min), math.log10(args.n_max), args.n_points)


def _add_media_flags(sub: _Parser) -> None:
    sub.add_argument("--sigma-phi", type=float, default=None,
                     help="spectral one-sigma width, rad/s")
    sub.add_argument("--wavelength", type=float, default=800.0,
                     help="carrier wavelength, nm (default 800), at which every medium's GDD "
                          "is taken: air: segments are reference air there, and a catalog "
                          "material other than vacuum holds at 800 nm only")
    sub.add_argument("--B", type=float, default=None,
                     help="total group-delay dispersion beta1*x1 + beta2*x2, fs^2 "
                          "(split evenly over the two paths); conflicts with --path*")
    sub.add_argument("--path1", action="append", default=[], metavar="MATERIAL:LENGTH",
                     help="segment of path 1, e.g. silica:1cm or air:10km (repeatable)")
    sub.add_argument("--path2", action="append", default=[], metavar="MATERIAL:LENGTH",
                     help="segment of path 2 (repeatable)")


# -- width --------------------------------------------------------------------

def _cmd_width(args) -> int:
    spectrum = GaussianSpectrum.from_si(args.sigma_phi)
    paths, gdd_sum = _paths_from_args(args)
    state = StateSpec(StateKind(args.state), args.n, v_mag=args.v, u_mag=args.u)

    dist = quantum_distribution(state, spectrum, paths)
    _, gdd1, _, gdd2 = paths.coefficients()
    sigma_t = classical_width(spectrum.sigma_phi, gdd1, gdd2)
    sigma_c = classical_shot_noise(sigma_t, state.n_photons)
    ratio = width_ratio(spectrum.sigma_phi, state.n_photons, gdd1, gdd2)

    payload = {
        "state": state.kind.value,
        "variable": dist.variable.value,
        "n_photons": state.n_photons,
        "gdd_sum_fs2": gdd_sum,
        "mean_fs": dist.mean,
        "sigma_quantum_fs": dist.sigma,
        "sigma_classical_pulse_fs": sigma_t,
        "sigma_classical_shot_noise_fs": sigma_c,
        "ratio_quantum_over_classical": ratio,
        "asymptotic_width_fs": asymptotic_width(spectrum.sigma_phi, gdd_sum),
        "amplitude_scale": dist.amplitude_scale,
    }
    return _report(args, payload)


# -- scan ---------------------------------------------------------------------

def _cmd_scan(args) -> int:
    sigma_phi = sigma_phi_from_rad_per_s(args.sigma_phi)
    paths, gdd_sum = _paths_from_args(args)
    n = _photon_grid(args)

    _, gdd1, _, gdd2 = paths.coefficients()
    sigma_t = classical_width(sigma_phi, gdd1, gdd2)
    columns = (n, sigma_phi * quantum_width(sigma_phi, n, gdd_sum),
               sigma_phi * classical_shot_noise(sigma_t, n))

    _write_csv(args, ["N", "p_quantum", "p_classical"], columns)
    return 0


# -- surface ------------------------------------------------------------------

def _cmd_surface(args) -> int:
    import numpy as np

    n_values = _photon_grid(args)
    if not 0 <= args.x_min <= args.x_max < math.inf:
        raise DomainError(f"need 0 <= x-min <= x-max < inf, got {args.x_min} and {args.x_max}")
    if args.x_points < 1:
        raise DomainError(f"--x-points must be >= 1, got {args.x_points}")
    if not math.isfinite(args.beta):
        raise DomainError(f"--beta must be finite, got {args.beta}")
    sigma_phi = sigma_phi_from_rad_per_s(args.sigma_phi)

    # N-major grid with x cm of the medium in each path: total GDD 2*beta*x,
    # classical per-path products beta*x each.
    n, x = np.meshgrid(n_values, np.linspace(args.x_min, args.x_max, args.x_points),
                       indexing="ij")
    # A GDD that overflows is left to the closed forms, which reject a GDD
    # that is not finite.
    with np.errstate(over="ignore"):
        gdd_path = args.beta * x
    ratio = width_ratio(sigma_phi, n, gdd_path, gdd_path)
    clipped = np.maximum(ratio, 1.0) if args.clip == "unity" else ratio

    _write_csv(args, ["N", "x_cm", "R", "R_raw"], [a.ravel() for a in (n, x, clipped, ratio)])
    return 0


# -- transition ---------------------------------------------------------------

def _cmd_transition(args) -> int:
    sigma_phi = sigma_phi_from_rad_per_s(args.sigma_phi)
    _, gdd_sum = _paths_from_args(args)
    n_t = transition_photon_number(sigma_phi, gdd_sum)

    payload = {"gdd_sum_fs2": gdd_sum, "transition_photon_number": n_t}
    if args.wavelength == CATALOG_WAVELENGTH_NM:  # where the catalog's silica holds
        payload["equivalent_silica_total_cm"] = abs(gdd_sum) / material_catalog()["fused_silica"].beta
    payload["equivalent_air_total_m"] = air_length_m(abs(gdd_sum),
                                                     reference_air_beta(args.wavelength))
    return _report(args, payload)


# -- media --------------------------------------------------------------------

def _cmd_media(args) -> int:
    # Built for every material, so that no report records an unphysical condition.
    conditions = AirConditions(
        temperature_c=args.temperature,
        pressure_pa=args.pressure,
        relative_humidity=args.rh,
    )
    material = resolve_material(args.material, args.wavelength)
    silica_beta = material_catalog()["fused_silica"].beta
    if material == "air":
        refractivity = AIR_FORMULAS[args.formula](conditions, args.wavelength)
        beta = air_dispersion_coefficient(conditions, args.formula, args.wavelength)
        payload = {
            **_parameters(args),   # the manifest's parameters, in flag order
            "n_minus_1": refractivity,
            "beta_fs2_per_cm": beta,
        }
        if args.wavelength == CATALOG_WAVELENGTH_NM:  # where the catalog's silica holds
            payload["length_equivalent_to_1cm_silica_m"] = air_length_m(silica_beta, beta)
    else:
        entry = material_catalog()[material]
        payload = {
            "material": entry.label,
            "alpha_fs_per_cm": entry.alpha,
            "beta_fs2_per_cm": entry.beta,
            "note": entry.note,
        }
        if entry.beta != 0:
            payload["length_equivalent_to_1cm_silica_cm"] = silica_beta / entry.beta
    return _report(args, payload)


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    # Checked before the report is opened, whichever suite uses it.
    if not 0 <= args.seed < 2**64:
        raise DomainError(f"--seed must be in [0, 2^64), got {args.seed}")
    # Opened first, so that an unwritable report costs no suite run; a
    # suite that raises leaves no report behind.
    with _output(args, args.out) as (report_path, fh):
        names = list(SUITES) if args.suite == "all" else [args.suite]
        cases = [case for name in names for case in SUITES[name](args.seed)]
        passed = all(case["passed"] for case in cases)
        _dump_json(fh, {
            "schema": REPORT_SCHEMA,
            "suite": args.suite,
            "seed": args.seed,
            "cases": cases,
            "passed": passed,
        })
    _write_manifest(args, report_path)

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
    if getattr(args, "B", None) is not None:  # --B stands for the media: no preset paths
        preset = {key: value for key, value in preset.items() if key not in ("path1", "path2")}
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
    parser.commands = sub.choices  # each command's parser, which reports its usage errors

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
    verify.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--out", default="verification_report.json")
    verify.set_defaults(func=_cmd_verify)

    media = sub.add_parser("media", help="dispersion coefficient of a medium")
    media.add_argument("--material", required=True,
                       help="'air' or a catalog material (fused_silica, vacuum)")
    media.add_argument("--formula", choices=AIR_FORMULAS, default="edlen",
                       help="air-index formula (air only; default edlen)")
    media.add_argument("--wavelength", type=float, default=800.0,
                       help="carrier wavelength, nm (default 800), at which n - 1 and beta "
                            "are taken")
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
        if name in _REPORT_COMMANDS:
            command.add_argument("--json", action="store_true", help="print the report as JSON")
    return parser


def _single_threaded_blas(argv) -> None:
    """Start OpenBLAS with one thread when ``main`` runs as the program.

    qtiming makes no BLAS call, yet the OpenBLAS that numpy loads starts
    worker threads that busy-wait on a CPU.  OpenBLAS reads its thread
    count once, as it loads, so this must run before numpy does.  It
    acts only for the program (``argv`` None: arguments from ``sys.argv``),
    only before numpy has loaded, and only if none of
    ``_BLAS_THREAD_VARIABLES`` is set.  A library import, or ``main(argv)``
    called in-process, leaves the host's environment alone.
    """
    if (argv is None and "numpy" not in sys.modules
            and not any(name in os.environ for name in _BLAS_THREAD_VARIABLES)):
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _usage_error(args, extras: list[str]) -> str | None:
    """The first rule on which flags are given that ``args`` break, in argparse's words, or None."""
    if extras:
        return f"unrecognized arguments: {' '.join(extras)}"
    missing = [flag for flag in _REQUIRED_FLAGS.get(args.command, ())
               if getattr(args, flag[2:].replace("-", "_")) is None]
    if missing:
        return f"the following arguments are required: {', '.join(missing)}"
    if hasattr(args, "B"):
        if args.B is not None and (args.path1 or args.path2):
            return "--B conflicts with --path1/--path2; give one or the other"
        if args.B is None and not (args.path1 or args.path2):
            return "media unspecified: give --B or --path1/--path2 explicitly"
    # A count below 1 is a domain error, so it counts as no rows here.
    rows = math.prod(max(getattr(args, name, 1), 0) for name in ("n_points", "x_points"))
    if rows > _MAX_GRID_ROWS:
        return f"a grid of {rows} rows exceeds the limit of {_MAX_GRID_ROWS} rows"
    return None


def _run(parser: _Parser, argv) -> int:
    try:
        try:
            args, extras = parser.parse_known_args(argv)
            _apply_preset(args)
            problem = _usage_error(args, extras)
            if problem is not None:
                parser.commands[args.command].error(problem)
            return args.func(args)
        finally:
            sys.stdout.flush()  # a reader that closed early shows here, not at exit
    except BrokenPipeError:
        if argv is None:
            # The interpreter flushes stdout once more as it exits.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except DomainError as exc:
        print(f"qtiming: error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    _single_threaded_blas(argv)
    try:
        return _run(build_parser(), argv)
    finally:
        if argv is None:
            # The program is done and the OS frees its heap at exit, so the
            # interpreter's teardown need not collect it.  A host that calls
            # main(argv) keeps its heap collectable.
            gc.freeze()

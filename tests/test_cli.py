"""End-to-end tests of the command-line interface.

Each command runs through ``main(argv)`` against a temp directory; outputs
are parsed back and checked, including manifest round-trips.
"""

import argparse
import contextlib
import csv
import decimal
import errno
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtiming
from qtiming import cli, oracle, verify
from qtiming.cli import main
from qtiming.errors import DomainError
from qtiming.media import air_length_m, catalog_segment, reference_air_beta

SIGMA_PHI = 3.7e-4  # rad/fs, equals the CLI's 3.7e11 rad/s input


def run(tmp_path, *argv):
    return main([*argv, "--out-dir", str(tmp_path)])


def exit_code(tmp_path, *argv):
    """Exit code of a CLI run, whether it returns or raises SystemExit."""
    try:
        return run(tmp_path, *argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


class TestWidth:
    def test_transition_width_is_sqrt_two_of_asymptote(self, tmp_path, capsys):
        # At the exact (real-valued) transition the ratio is sqrt(2) to
        # float precision; rounding N to the nearest integer costs ~3e-5.
        code = run(tmp_path, "width", "--sigma-phi", "3.7e11",
                   "--n", "7304.601899196491", "--B", "500", "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        ratio = payload["sigma_quantum_fs"] / payload["asymptotic_width_fs"]
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-9)

        code = run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "7305",
                   "--B", "500", "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        ratio = payload["sigma_quantum_fs"] / payload["asymptotic_width_fs"]
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-4)

    def test_single_photon_no_dispersion_gives_packet_width(self, tmp_path, capsys):
        code = run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "1", "--B", "0", "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sigma_quantum_fs"] == pytest.approx(
            1.0 / (math.sqrt(2.0) * SIGMA_PHI), rel=1e-12
        )

    def test_correlated_state_reports_sum_variable(self, tmp_path, capsys):
        code = run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "4",
                   "--B", "500", "--state", "corr", "--json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variable"] == "sum"

    def test_conflicting_media_flags_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "1",
                "--B", "500", "--path1", "silica:1cm")
        assert excinfo.value.code == 1

    def test_missing_media_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "1")
        assert excinfo.value.code == 1

    def test_coherent_scale_past_float64_range_is_finite(self, tmp_path, capsys):
        code = run(tmp_path, "width", "--state", "coherent", "--v", "1.2", "--u", "0.8",
                   "--n", "10000", "--B", "0", "--sigma-phi", "3.7e11", "--json")
        assert code == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["amplitude_scale"])

    def test_coherent_scale_with_an_underflowing_factor_is_taken_in_log_space(self, tmp_path,
                                                                               capsys):
        # 1e-3^150 underflows to 0 on its own; its product with 10^150 is 1e-300.
        code = run(tmp_path, "width", "--state", "coherent", "--v", "1e-3", "--u", "10",
                   "--n", "75", "--B", "0", "--sigma-phi", "3.7e11", "--json")
        assert code == 0
        scale = json.loads(capsys.readouterr().out)["amplitude_scale"]
        assert math.isclose(scale, 1e-300, rel_tol=1e-12)

    def test_zero_coherent_amplitude_gives_zero_scale(self, tmp_path, capsys):
        code = run(tmp_path, "width", "--state", "coherent", "--v", "0", "--u", "1",
                   "--n", "10", "--B", "500", "--sigma-phi", "3.7e11", "--json")
        assert code == 0
        assert json.loads(capsys.readouterr().out)["amplitude_scale"] == 0.0

    def test_coherent_scale_overflow_is_domain_error(self, tmp_path, capsys):
        code = run(tmp_path, "width", "--state", "coherent", "--v", "1.2", "--u", "1.2",
                   "--n", "10000", "--B", "0", "--sigma-phi", "3.7e11")
        assert code == 2
        err = capsys.readouterr().err
        assert "overflows" in err and "Traceback" not in err

    def test_writes_manifest_and_report(self, tmp_path, capsys):
        run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "2", "--B", "100")
        manifest = json.loads((tmp_path / "width_manifest.json").read_text())
        assert manifest["schema"] == "qtiming.run-manifest/1"
        assert manifest["parameters"]["n"] == 2.0
        assert all(Path(p).exists() for p in manifest["outputs"])


class TestScan:
    def test_single_point_range(self, tmp_path):
        assert run(tmp_path, "scan", "--sigma-phi", "3.7e11", "--B", "0",
                   "--n-min", "5", "--n-max", "5", "--n-points", "1") == 0
        header, rows = read_csv(tmp_path / "scan.csv")
        assert header == ["N", "p_quantum", "p_classical"]
        assert len(rows) == 1
        assert rows[0][0] == 5.0

    def test_dispersion_free_columns_follow_power_laws(self, tmp_path):
        assert run(tmp_path, "scan", "--sigma-phi", "3.7e11", "--B", "0",
                   "--n-min", "1", "--n-max", "1e4", "--n-points", "5") == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        data = np.array(rows)
        n, p_q, p_c = data.T
        assert np.allclose(p_q, p_q[0] / n, rtol=1e-12)          # 1/N
        assert np.allclose(p_c, p_c[0] / np.sqrt(n), rtol=1e-12)  # 1/sqrt(N)
        assert np.all(p_q[n > 1] < p_c[n > 1])

    def test_preset_pins_parameters(self, tmp_path):
        assert run(tmp_path, "scan", "--preset", "fig2") == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        assert len(rows) == 121
        assert rows[0][0] == 1.0
        assert rows[-1][0] == pytest.approx(1e6)
        manifest = json.loads((tmp_path / "scan_manifest.json").read_text())
        assert manifest["parameters"]["sigma_phi_rad_per_s"] == 3.7e11
        assert manifest["parameters"]["path1"] == ["silica:400cm"]

    def test_empty_range_is_domain_error(self, tmp_path, capsys):
        assert run(tmp_path, "scan", "--sigma-phi", "3.7e11", "--B", "0",
                   "--n-min", "10", "--n-max", "1") == 2
        assert capsys.readouterr().err.startswith("qtiming: error: need 1 <= n-min <= n-max")

    def test_photon_range_reaches_both_bounds(self, tmp_path):
        # The range `width --n` accepts: 1 <= N <= MAX_PHOTON_NUMBER.
        assert run(tmp_path, "scan", "--sigma-phi", "3.7e11", "--B", "500",
                   "--n-min", "1", "--n-max", "1e12", "--n-points", "3") == 0
        _, rows = read_csv(tmp_path / "scan.csv")
        assert [row[0] for row in rows] == [1.0, 1e6, 1e12]

    def test_rerun_from_manifest_parameters_is_byte_identical(self, tmp_path):
        run(tmp_path, "scan", "--preset", "fig2")
        first = (tmp_path / "scan.csv").read_bytes()
        params = json.loads((tmp_path / "scan_manifest.json").read_text())["parameters"]
        argv = ["scan", "--sigma-phi", repr(params["sigma_phi_rad_per_s"]),
                "--n-min", repr(params["n_min"]), "--n-max", repr(params["n_max"]),
                "--n-points", str(params["n_points"]), "--out", params["out"]]
        for segment in params["path1"]:
            argv += ["--path1", segment]
        for segment in params["path2"]:
            argv += ["--path2", segment]
        second_dir = tmp_path / "again"
        assert main([*argv, "--out-dir", str(second_dir)]) == 0
        assert (second_dir / "scan.csv").read_bytes() == first


class TestSurface:
    def test_preset_grid_shape_and_clipping(self, tmp_path):
        assert run(tmp_path, "surface", "--preset", "fig3") == 0
        header, rows = read_csv(tmp_path / "surface.csv")
        assert header == ["N", "x_cm", "R", "R_raw"]
        assert len(rows) == 33 * 41
        data = np.array(rows)
        clipped, raw = data[:, 2], data[:, 3]
        assert np.all(clipped >= 1.0)
        below = raw < 1.0
        assert np.all(clipped[below] == 1.0)
        assert np.all(clipped[~below] == raw[~below])

    def test_zero_distance_column_is_quantum_advantage(self, tmp_path):
        assert run(tmp_path, "surface", "--sigma-phi", "3.7e11", "--beta", "250",
                   "--n-min", "1", "--n-max", "100", "--n-points", "3",
                   "--x-min", "0", "--x-max", "10", "--x-points", "2") == 0
        _, rows = read_csv(tmp_path / "surface.csv")
        for n, x, _, raw in rows:
            if x == 0.0:
                assert raw == pytest.approx(1.0 / math.sqrt(2.0 * n), rel=1e-12)

    def test_clip_choices_differ_only_below_unity(self, tmp_path):
        args = ["surface", "--sigma-phi", "3.7e11", "--beta", "250",
                "--n-min", "1", "--n-max", "1e4", "--n-points", "5",
                "--x-min", "0", "--x-max", "200", "--x-points", "5"]
        run(tmp_path, *args, "--out", "off.csv")
        run(tmp_path, *args, "--out", "on.csv", "--clip", "unity")
        _, off_rows = read_csv(tmp_path / "off.csv")
        _, on_rows = read_csv(tmp_path / "on.csv")
        for off, on in zip(off_rows, on_rows):
            assert off[3] == on[3]
            if off[3] >= 1.0:
                assert off[2] == on[2]
            else:
                assert on[2] == 1.0


BAD_GRIDS = [
    # Grid bounds, point counts and the medium: each a domain error.
    ("scan", "--preset", "fig2", "--n-points", "0"),
    ("scan", "--preset", "fig2", "--n-max", "inf"),
    ("scan", "--preset", "fig2", "--n-min", "nan"),
    ("scan", "--preset", "fig2", "--n-min", "1e4", "--n-max", "10"),
    ("scan", "--preset", "fig2", "--n-min", "1e-300", "--n-max", "1"),
    ("scan", "--preset", "fig2", "--n-min", "0.5"),
    ("scan", "--preset", "fig2", "--n-max", "1e15"),
    ("surface", "--preset", "fig3", "--n-points", "0"),
    ("surface", "--preset", "fig3", "--x-points", "0"),
    ("surface", "--preset", "fig3", "--n-max", "inf"),
    ("surface", "--preset", "fig3", "--n-min", "nan"),
    ("surface", "--preset", "fig3", "--n-min", "100", "--n-max", "10"),
    ("surface", "--preset", "fig3", "--n-min", "0.5"),
    ("surface", "--preset", "fig3", "--n-max", "1e13"),
    ("surface", "--preset", "fig3", "--x-max", "inf"),
    ("surface", "--preset", "fig3", "--x-min", "nan"),
    ("surface", "--preset", "fig3", "--x-min", "50", "--x-max", "5"),
    ("surface", "--preset", "fig3", "--beta", "nan"),
    ("surface", "--preset", "fig3", "--beta", "inf"),
]


@pytest.mark.parametrize("argv", BAD_GRIDS, ids=[" ".join(argv[:1] + argv[3:]) for argv in BAD_GRIDS])
def test_bad_grid_exits_without_csv(tmp_path, capsys, argv):
    assert exit_code(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("qtiming: error:")
    assert not list(tmp_path.glob("*.csv"))


OVERSIZED_GRIDS = [
    # Refused before any array is built: ~10^10 surface cells would need
    # hundreds of GB, and 2^22 + 1 scan rows pass every other check.
    ("surface", "--preset", "fig3", "--n-points", "100000", "--x-points", "100000"),
    ("scan", "--preset", "fig2", "--n-points", str((1 << 22) + 1)),
]


@pytest.mark.parametrize("argv", OVERSIZED_GRIDS, ids=" ".join)
def test_oversized_grid_is_usage_error(tmp_path, capsys, argv):
    assert exit_code(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"exceeds the limit of {1 << 22} rows" in err
    assert not list(tmp_path.iterdir())


def test_grid_row_limit_is_inclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_GRID_ROWS", 12)
    assert run(tmp_path, "surface", "--preset", "fig3", "--n-points", "3", "--x-points", "4") == 0
    assert run(tmp_path, "scan", "--preset", "fig2", "--n-points", "12") == 0
    for argv in (("surface", "--preset", "fig3", "--n-points", "13", "--x-points", "1"),
                 ("surface", "--preset", "fig3", "--n-points", "1", "--x-points", "13"),
                 ("scan", "--preset", "fig2", "--n-points", "13")):
        assert exit_code(tmp_path / "refused", *argv) == 1
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("argv", [("scan", "--preset", "fig2"), ("surface", "--preset", "fig3"),
                                  ("verify", "--suite", "quadrature")], ids=lambda a: a[0])
def test_json_flag_only_on_report_commands(tmp_path, capsys, argv):
    # scan, surface and verify print no report, so --json is unrecognized.
    assert exit_code(tmp_path, *argv, "--json") == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --json" in err
    assert err.startswith(f"usage: qtiming {argv[0]} ")
    assert not list(tmp_path.iterdir())


# A command line for each command of cli._REQUIRED_FLAGS that gives every
# required flag; each case of USAGE_ERRORS leaves out one flag at a time.
COMPLETE_LINES = {
    "width": ["width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "500"],
    "scan": ["scan", "--sigma-phi", "3.7e11", "--B", "500", "--n-min", "1", "--n-max", "10"],
    "surface": ["surface", "--sigma-phi", "3.7e11", "--beta", "250", "--n-min", "1",
                "--n-max", "10", "--x-min", "0", "--x-max", "5"],
    "transition": ["transition", "--sigma-phi", "3.7e11", "--B", "500"],
}
CONFLICT = "--B conflicts with --path1/--path2; give one or the other"


def _without(argv, flag):
    at = argv.index(flag)
    return argv[:at] + argv[at + 2:]


USAGE_ERRORS = {
    **{f"{command} without {flag}": (_without(COMPLETE_LINES[command], flag),
                                     f"the following arguments are required: {flag}")
       for command, flags in cli._REQUIRED_FLAGS.items() for flag in flags},
    "B with path1": ([*COMPLETE_LINES["width"], "--path1", "silica:1cm"], CONFLICT),
    "preset paths with B and path2": (["transition", "--preset", "ntrans-1cm", "--B", "500",
                                       "--path2", "air:1km"], CONFLICT),
    "no media": (_without(COMPLETE_LINES["transition"], "--B"),
                 "media unspecified: give --B or --path1/--path2 explicitly"),
    "row cap": (["surface", "--preset", "fig3", "--n-points", "4096", "--x-points", "1025"],
                f"a grid of 4198400 rows exceeds the limit of {1 << 22} rows"),
    "unrecognized flag": (["scan", "--preset", "fig2", "--bogus"],
                          "unrecognized arguments: --bogus"),
    "retired budget flag": (["verify", "--max-points", "500"],
                            "unrecognized arguments: --max-points 500"),
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_shows_the_commands_usage(tmp_path, capsys, name):
    # Checked once, after the preset: exit 1, the command's own usage line,
    # and nothing written.
    argv, message = USAGE_ERRORS[name]
    assert exit_code(tmp_path, *argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"usage: qtiming {argv[0]} ")
    assert err.endswith(f"\nqtiming {argv[0]}: error: {message}\n")
    assert out == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [("scan", "--preset", "fig2"),
                                  ("transition", "--preset", "ntrans-1cm")], ids=lambda a: a[0])
def test_b_replaces_the_presets_paths(tmp_path, capsys, argv):
    assert run(tmp_path, *argv, "--B", "500") == 0
    parameters = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())["parameters"]
    assert (parameters["B_fs2"], parameters["path1"], parameters["path2"]) == (500.0, [], [])


def test_preset_csvs_match_recorded_digests(tmp_path):
    # SHA-256 of the fig2 and fig3 CSVs as first released; a refactor of the
    # closed forms or the writer must keep these bytes.  They were recorded
    # with numpy's AVX-512 `power` behind np.logspace: with
    # NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" the N grid
    # moves by one ulp at five fig2 points (to libm's correctly rounded
    # pow), and the digests read 5ebd07a0... and beaa64c7... instead.
    assert run(tmp_path, "scan", "--preset", "fig2") == 0
    assert run(tmp_path, "surface", "--preset", "fig3") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("scan.csv", "surface.csv")}
    assert digests == {
        "scan.csv": "fe44b33279b3bb866f5bc288075bd99259757548d85bc94f4e8e6e5d14da243b",
        "surface.csv": "8b7cf602ae90e08c09f3ac66036dbd0d0d4bc32ddc2a3f289193f4cff47049ab",
    }


# SHA-256 of the reports of the benchmark's report jobs and of both catalog
# materials, then of what each run prints; a refactor of the media, the
# closed forms or the report output must keep these bytes.
REPORT_DIGESTS = {
    "width-paths": (("width", "--sigma-phi", "3.7e11", "--n", "100",
                     "--path1", "silica:1cm", "--path2", "silica:1cm"),
                    "48ee9040632b7c32e9b8ff08ae685596edbe2ff5b4b81142667deb2674d0caba",
                    "587ff350287afe1b2776ec4a4a1877ebeb35c48eac1d396a210c3542fdd683d8"),
    "width-json": (("width", "--sigma-phi", "3.7e11", "--n", "7305", "--B", "500", "--json"),
                   "5a528fb217c05cbc3429127f401900c926cc6681df6baa21df06088e58a0e4fb",
                   "5a528fb217c05cbc3429127f401900c926cc6681df6baa21df06088e58a0e4fb"),
    "transition": (("transition", "--preset", "ntrans-1cm"),
                   "ba4cf577a2ae6a660bda89227bfdfcba7ad775e0655bee37ced2b0ef7bafc8b3",
                   "0939bc85ef4dd08f90875d03c6ef25aa407417c61a241608df2545a9f64b8fe6"),
    "media-owens": (("media", "--material", "air", "--formula", "owens", "--rh", "0.2"),
                    "798014622563f12f272a9e34907f6e106d7eb7ba4c8124846f6281b1b61eff2c",
                    "e4a43a876a9814ea1767703b6dccfed86d4c4b37b09e7b94f74f4f79d64ebe59"),
    "media-silica": (("media", "--material", "silica"),
                     "edc98bc94c87d4169c486799ed68cde80e764123287655e3e4d3f7237a8de3cd",
                     "1a1dc5e3c2f89768007faaf6d8f2655b7d66b0d70d2a9a26153f747bc6e83917"),
    "media-vacuum": (("media", "--material", "vacuum"),
                     "756ba94ffa0d1de0e9141c982bdc62a6a64eb1d9cdd03b670d25bfbf914a2adc",
                     "a773e9699c667f340b7e0f176c0f14e37ed0a1373b0891abac3d678bab11612a"),
    # The air path away from its defaults: cold humid Owens air at 1064 nm,
    # an air: segment, and a bare --B at 1550 nm.
    "media-owens-1064": (("media", "--material", "air", "--formula", "owens", "--rh", "0.7",
                          "--temperature", "-20", "--pressure", "95000", "--wavelength", "1064"),
                         "f75dd97f48cc90f22d7729151593210af4499edef2f51d66c888454a2941bea2",
                         "3bae3dc7842492f4df3c2294c81c502958078245ee14caeec48d5e0c277d73a8"),
    "width-air": (("width", "--sigma-phi", "3.7e11", "--n", "100",
                   "--path1", "air:1km", "--path2", "silica:1cm"),
                  "954c1e126f220e5cffcc6503f75c1882e1be2d651c81e978f6faa6ab37be6d06",
                  "1a8674619986da590f7ded110eb6084a3f1cb0333d2d567256cfbaba727d8878"),
    "transition-1550": (("transition", "--sigma-phi", "3.7e11", "--B", "500", "--wavelength", "1550"),
                        "c179331f37daa40e607e4cf661043ddd339c9e5e26e89b612a49053fdd59d8bf",
                        "873c54bdf9a19e7e4deacf2599582890447d3ec10e2c3e958da453449340a457"),
}


@pytest.mark.parametrize("name", REPORT_DIGESTS)
def test_reports_match_recorded_digests(tmp_path, capsys, name):
    argv, report_digest, stdout_digest = REPORT_DIGESTS[name]
    assert run(tmp_path, *argv) == 0
    report = tmp_path / f"{argv[0]}_report.json"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest


def test_grid_fine_csvs_match_recorded_digests(tmp_path):
    # The benchmark's seed-0 grid-fine jobs: 180,000 and 200,000 rows, so
    # unlike fig2 and fig3 they span many writer blocks.  Like the preset
    # digests, these hold for numpy's AVX-512 `power` behind np.logspace;
    # without it they read e9b47fcb... and 24fd32ae... instead.
    assert run(tmp_path, "scan", "--sigma-phi", "3.7e11", "--path1", "silica:400cm",
               "--n-min", "1.0844421851525048", "--n-max", "1075795.4402940301",
               "--n-points", "180000") == 0
    assert run(tmp_path, "surface", "--sigma-phi", "3.7e11", "--beta", "250",
               "--n-min", "1.0420571580830844", "--n-max", "10258.916750292963",
               "--n-points", "400", "--x-min", "2.5563736068430427",
               "--x-max", "208.09868274900828", "--x-points", "500", "--clip", "unity") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("scan.csv", "surface.csv")}
    assert digests == {
        "scan.csv": "2eea64db790aec4dcf11b6e0286f19b001eea1e25a43a018eaf479999490114b",
        "surface.csv": "4b547b20f83ef81c07f19233645f2909580b67e4cf587961cc91c342acc3f863",
    }


def reference_csv(header, columns):
    """The writer's earlier body: csv.writer over each row's tolist()."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(row.tolist() for row in np.column_stack(columns))
    return fh.getvalue().encode("utf-8")


def written_csv(tmp_path, header, columns):
    args = argparse.Namespace(out_dir=str(tmp_path), out="table.csv", command="scan")
    cli._write_csv(args, header, columns)
    return (tmp_path / "table.csv").read_bytes()


WRITER_TABLES = {
    "signed zeros": (["a", "b"], [np.array([-0.0, 0.0, 0.0, -0.0]),
                                  np.array([0.0, -0.0, -0.0, 1.0])]),
    "special values": (["x", "y"], [
        np.array([math.nan, math.inf, -math.inf, 1e16, 1e-5, 5e-324, -5e-324]),
        np.array([1e-5, 1e16, 5e-324, math.nan, -math.inf, math.inf, 0.1])]),
    "repeated value": (["p", "q", "r"], [np.full(5, 0.1), np.full(5, 0.1), np.full(5, 0.1)]),
    "one column": (["N"], [np.logspace(0, 6, 7)]),
}


@pytest.mark.parametrize("name", WRITER_TABLES)
def test_csv_writer_bytes_match_csv_module(tmp_path, capsys, name):
    header, columns = WRITER_TABLES[name]
    assert written_csv(tmp_path, header, columns) == reference_csv(header, columns)
    assert f"({len(columns[0])} rows)" in capsys.readouterr().out


@pytest.mark.parametrize("rows", [1, 7, 8, 9])
def test_csv_writer_bytes_across_block_edges(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 8)
    rng = np.random.default_rng(rows)
    n = rng.choice([1.0, 2.5, -0.0, 0.0, 1e300], size=rows)
    columns = [n, rng.standard_normal(rows), np.maximum(n, 1.0), n]
    header = ["N", "x_cm", "R", "R_raw"]
    assert written_csv(tmp_path, header, columns) == reference_csv(header, columns)


@pytest.mark.parametrize("shares", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 8, 9, 16, 17, 23, 24, 25, 40, 41])
def test_csv_writer_bytes_across_shares(tmp_path, monkeypatch, capsys, shares, rows):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 8)
    monkeypatch.setattr(cli, "usable_cpus", lambda: shares)
    assert len(cli._row_shares(rows)) == min(shares, -(-rows // 8))
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows) for _ in range(3)]
    # Every block edge, and so every share edge, carries a special value.
    specials = [-0.0, math.nan, math.inf, -math.inf]
    for k, i in enumerate(i for i in range(rows) if i % 8 in (0, 7)):
        columns[k % 3][i] = specials[k % 4]
        columns[(k + 1) % 3][i] = specials[(k + 1) % 4]
    header = ["a", "b", "c"]
    assert written_csv(tmp_path, header, columns) == reference_csv(header, columns)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan_manifest.json", "table.csv"]
    assert capsys.readouterr().err == ""


# The CLI with the CSV writer in 8-row blocks over 3 processes, so that a
# 40-row scan forks two formatter children, and with a failure patched in.
THREE_WRITERS = """
import errno, os, signal, sys
from qtiming import cli
parent = os.getpid()
format_block = cli._format_block
write_share = cli._write_share
{}
cli._CSV_BLOCK_ROWS = 8
cli.usable_cpus = lambda: 3
sys.exit(cli.main(sys.argv[1:]))
"""

# Ways a formatter child can fail, none of which the parent meets.
CHILD_FAILURES = {
    "raises": """
def failing_in_child(column_slices):
    if os.getpid() != parent:
        raise ZeroDivisionError("formatter failed in the child")
    return format_block(column_slices)
cli._format_block = failing_in_child
""",
    "is killed": """
def killed_in_child(column_slices):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return format_block(column_slices)
cli._format_block = killed_in_child
""",
    # A full TMPDIR: only a child's anonymous temporary file, whose name is
    # its descriptor, not a path, hits it.
    "full TMPDIR": """
def full_temporary_disk(fh, columns, rows):
    if not isinstance(fh.name, str):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    write_share(fh, columns, rows)
cli._write_share = full_temporary_disk
""",
}

SMALL_SCAN = ["scan", "--sigma-phi", "3.7e11", "--B", "500", "--n-min", "1", "--n-max", "100",
              "--n-points"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV writer forks only where os.fork exists")
@pytest.mark.parametrize("failure", CHILD_FAILURES)
def test_csv_writer_child_failure_costs_time_not_the_run(tmp_path, monkeypatch, failure):
    # The parent formats the share of a child that failed in any way, so the
    # run ends as a serial pass would.
    result = subprocess.run(
        [sys.executable, "-c", THREE_WRITERS.format(CHILD_FAILURES[failure]), *SMALL_SCAN, "40",
         "--out-dir", str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"wrote {tmp_path / 'scan.csv'} (40 rows)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv", "scan_manifest.json"]
    tables = []
    monkeypatch.setattr(cli, "_write_csv", lambda args, *table: tables.append(table))
    assert run(tmp_path, *SMALL_SCAN, "40") == 0
    assert (tmp_path / "scan.csv").read_bytes() == reference_csv(*tables[0])


# The CLI with the CSV writer's rows split over two processes, whatever the
# machine's CPU count.
TWO_WRITERS = """
import sys
from qtiming import cli
cli.usable_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""

# The share that holds the last row hits a full disk.  With 40 rows in 8-row
# blocks over 3 CPUs that share is a forked child's, and then the parent's,
# which formats the share of a failed child itself; with 8 rows, one block,
# it is the only process's.
FULL_DISK_AT_THE_END = """
import errno, os, sys
from qtiming import cli
write_share = cli._write_share
def full_at_the_end(fh, columns, rows):
    if rows.stop == len(columns[0]):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    write_share(fh, columns, rows)
cli._write_share = full_at_the_end
cli._CSV_BLOCK_ROWS = 8
cli.usable_cpus = lambda: 3
sys.exit(cli.main(sys.argv[1:]))
"""


def _failed_write(out_dir, script, argv, **kwargs) -> str:
    """The stderr of a CLI run, through ``script``, that must end in a write error.

    The run exits 1 with no traceback and leaves ``out_dir`` as it found
    it: holding only ``earlier.txt``.
    """
    (out_dir / "earlier.txt").write_text("kept\n")
    result = subprocess.run([sys.executable, "-c", script, *argv, "--out-dir", str(out_dir)],
                            env=_child_env(), capture_output=True, text=True, timeout=120,
                            **kwargs)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert [p.name for p in out_dir.iterdir()] == ["earlier.txt"]
    assert (out_dir / "earlier.txt").read_text() == "kept\n"
    return result.stderr


def _one_write_error(stderr: str, path: Path, code: int) -> None:
    """``stderr`` is the top-level usage and one ``cannot write`` line for ``path``."""
    assert stderr.startswith("usage: qtiming ")
    assert stderr.endswith(f"qtiming: error: cannot write {path}: {os.strerror(code)}\n")
    assert stderr.count("error:") == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV writer forks only where os.fork exists")
def test_csv_writer_child_write_error_reads_like_the_parents(tmp_path):
    # Under a 4 KiB file-size limit, a fig2 scan of 2,000 rows (one writer
    # block, one process) and one of 3,000 rows (two blocks, the second
    # formatted by a forked child) end in the same error.
    resource = pytest.importorskip("resource")

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))

    scan = ["scan", "--preset", "fig2", "--n-points"]
    control = _failed_write(tmp_path, TWO_WRITERS, [*scan, "2000"], preexec_fn=limit_file_size)
    _one_write_error(control, tmp_path / "scan.csv", errno.EFBIG)
    forked = _failed_write(tmp_path, TWO_WRITERS, [*scan, "3000"], preexec_fn=limit_file_size)
    assert forked == control


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV writer forks only where os.fork exists")
def test_csv_writer_child_only_write_error_reads_like_the_parents(tmp_path):
    # A full disk that a child's share meets, and so the parent formatting
    # that share after it, ends like the same error met by the one process
    # of a one-block CSV.
    scan = ["scan", "--sigma-phi", "3.7e11", "--B", "500", "--n-min", "1", "--n-max", "100",
            "--n-points"]
    control = _failed_write(tmp_path, FULL_DISK_AT_THE_END, [*scan, "8"])
    _one_write_error(control, tmp_path / "scan.csv", errno.ENOSPC)
    forked = _failed_write(tmp_path, FULL_DISK_AT_THE_END, [*scan, "40"])
    assert forked == control


def test_csv_writer_failed_write_keeps_a_symlinked_csv(tmp_path):
    # The partial CSV is removed only while --out names the regular file
    # the writer opened, not a symlink to it.
    (tmp_path / "target.csv").write_text("kept\n")
    (tmp_path / "scan.csv").symlink_to(tmp_path / "target.csv")
    result = subprocess.run(
        [sys.executable, "-c", FULL_DISK_AT_THE_END, *SMALL_SCAN, "8", "--out-dir", str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    _one_write_error(result.stderr, tmp_path / "scan.csv", errno.ENOSPC)
    assert (tmp_path / "scan.csv").is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv", "target.csv"]


# Both children name a file after their pid in the directory given as the
# first argument, then sleep in their share; the parent's own write fails
# once both have.
SLEEPING_CHILDREN = """
import time
from pathlib import Path
pids = Path(sys.argv.pop(1))
def sleeping_in_child(column_slices):
    if os.getpid() != parent:
        (pids / str(os.getpid())).touch()
        time.sleep(600)
    return format_block(column_slices)
def full_disk_in_parent(fh, columns, rows):
    if isinstance(fh.name, str):
        while len(list(pids.iterdir())) < 2:
            time.sleep(0.01)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    write_share(fh, columns, rows)
cli._format_block = sleeping_in_child
cli._write_share = full_disk_in_parent
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the CSV writer forks only where os.fork exists")
def test_csv_writer_failed_write_stops_its_children(tmp_path):
    # A failed write ends the run at once: the children still formatting
    # are killed and reaped, not waited for.
    pid_dir, out_dir = tmp_path / "pids", tmp_path / "out"
    pid_dir.mkdir()
    out_dir.mkdir()
    try:
        stderr = _failed_write(out_dir, THREE_WRITERS.format(SLEEPING_CHILDREN),
                               [str(pid_dir), *SMALL_SCAN, "40"])
        _one_write_error(stderr, out_dir / "scan.csv", errno.ENOSPC)
        pids = [int(p.name) for p in pid_dir.iterdir()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
    finally:
        for p in pid_dir.iterdir():
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(p.name), signal.SIGKILL)


def test_csv_writer_without_fork_formats_in_one_process(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 8)
    monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
    monkeypatch.delattr(os, "fork")
    pids = []
    format_block = cli._format_block

    def recording(column_slices):
        pids.append(os.getpid())
        return format_block(column_slices)

    monkeypatch.setattr(cli, "_format_block", recording)
    header, columns = ["a", "b"], [np.linspace(-1.0, 1.0, 41), np.logspace(-3, 3, 41)]
    assert written_csv(tmp_path, header, columns) == reference_csv(header, columns)
    assert pids == [os.getpid()] * 6


def test_one_block_csvs_never_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a one-block CSV must not fork")

    monkeypatch.setattr(cli, "usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(tmp_path, "scan", "--preset", "fig2") == 0
    assert run(tmp_path, "surface", "--preset", "fig3") == 0


class TestTransition:
    def test_one_centimetre_preset(self, tmp_path, capsys):
        assert run(tmp_path, "transition", "--preset", "ntrans-1cm", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transition_photon_number"] == pytest.approx(7.3e3, rel=0.02)
        assert payload["equivalent_silica_total_cm"] == pytest.approx(2.0)

    def test_explicit_gdd(self, tmp_path, capsys):
        assert run(tmp_path, "transition", "--sigma-phi", "3.7e11",
                   "--B", "36523", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transition_photon_number"] == pytest.approx(100.0, rel=1e-4)

    def test_cancelled_dispersion_exits_with_domain_error(self, tmp_path, capsys):
        code = run(tmp_path, "transition", "--sigma-phi", "3.7e11", "--B", "0")
        assert code == 2
        assert "fully cancelled" in capsys.readouterr().err


class TestMedia:
    def test_edlen_air(self, tmp_path, capsys):
        assert run(tmp_path, "media", "--material", "air", "--formula", "edlen",
                   "--wavelength", "800", "--temperature", "15", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["beta_fs2_per_cm"] / 0.106 - 1.0) < 0.05
        assert payload["n_minus_1"] == pytest.approx(2.7504e-4, rel=1e-3)

    def test_owens_air_with_humidity(self, tmp_path, capsys):
        assert run(tmp_path, "media", "--material", "air", "--formula", "owens",
                   "--rh", "0.2", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["beta_fs2_per_cm"] / 0.103 - 1.0) < 0.05

    def test_silica_from_catalog(self, tmp_path, capsys):
        assert run(tmp_path, "media", "--material", "silica", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta_fs2_per_cm"] == 250.0

    def test_out_of_range_wavelength_is_domain_error(self, tmp_path):
        assert run(tmp_path, "media", "--material", "air", "--wavelength", "200") == 2

    def test_unknown_material_is_domain_error(self, tmp_path):
        assert run(tmp_path, "media", "--material", "diamond") == 2

    def test_unknown_material_in_a_path_has_the_same_message(self, tmp_path, capsys):
        assert run(tmp_path, "media", "--material", "diamond") == 2
        media = capsys.readouterr().err
        assert run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "3",
                   "--path1", "diamond:1cm") == 2
        with pytest.raises(DomainError) as library:
            catalog_segment("diamond", 1.0)
        assert capsys.readouterr().err == media == f"qtiming: error: {library.value}\n" == (
            "qtiming: error: unknown material 'diamond'; "
            "catalog has ['fused_silica', 'vacuum'] plus 'air'\n")

    @pytest.mark.parametrize("temperature", ["nan", "inf", "-300"])
    def test_unphysical_temperature_exits_without_report(self, tmp_path, capsys, temperature):
        code = run(tmp_path, "media", "--material", "air", "--temperature", temperature)
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "temperature" in err
        assert not (tmp_path / "media_report.json").exists()


    @pytest.mark.parametrize("flags", [
        ("--pressure", "1e-308"),
        ("--formula", "owens", "--rh", "0.5", "--temperature", "-257.14"),
        ("--formula", "owens", "--rh", "0.5", "--temperature", "-258"),
        ("--formula", "owens", "--rh", "0.5", "--temperature", "1e308"),
        ("--temperature", "1e308"),
        # Saturated water vapour at 50 C exceeds a total pressure of 1000 Pa.
        ("--formula", "owens", "--rh", "1", "--temperature", "50", "--pressure", "1000"),
    ], ids=" ".join)
    def test_air_outside_formula_range_exits_without_report(self, tmp_path, capsys, flags):
        assert run(tmp_path, "media", "--material", "air", *flags) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("qtiming: error:")
        assert not (tmp_path / "media_report.json").exists()


class TestWavelength:
    """--wavelength is the carrier at which every medium's GDD is taken."""

    # Owens beta of reference air, fs^2/cm, to the digits quoted.
    @pytest.mark.parametrize("wavelength, beta", [(633.0, 0.1386), (800.0, 0.1066),
                                                  (1550.0, 0.0531)])
    def test_air_path_is_reference_air_at_the_wavelength(self, tmp_path, capsys, wavelength,
                                                         beta):
        assert run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "100",
                   "--path1", "air:1km", "--wavelength", str(wavelength), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gdd_sum_fs2"] == 1e5 * reference_air_beta(wavelength)
        assert payload["gdd_sum_fs2"] == pytest.approx(1e5 * beta, rel=1e-3)

    def test_transition_away_from_800_nm_reports_air_only(self, tmp_path, capsys):
        assert run(tmp_path, "transition", "--sigma-phi", "3.7e11", "--B", "500",
                   "--wavelength", "1550", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert "equivalent_silica_total_cm" not in payload
        assert payload["equivalent_air_total_m"] == air_length_m(500.0, reference_air_beta(1550.0))
        assert payload["equivalent_air_total_m"] > 2 * air_length_m(500.0, reference_air_beta())

    @pytest.mark.parametrize("argv", [
        ("width", "--sigma-phi", "3.7e11", "--n", "3", "--path1", "silica:1cm"),
        ("scan", "--preset", "fig2"),
        ("transition", "--preset", "ntrans-1cm"),
        ("media", "--material", "silica"),
    ], ids=lambda argv: argv[0])
    def test_silica_away_from_800_nm_is_domain_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv, "--wavelength", "1550") == 2
        assert capsys.readouterr().err == (
            "qtiming: error: the catalog holds fused_silica at 800 nm only, not at 1550 nm\n")
        assert not list(tmp_path.iterdir())

    def test_vacuum_holds_at_any_wavelength(self, tmp_path, capsys):
        assert run(tmp_path, "media", "--material", "vacuum", "--wavelength", "1550", "--json") == 0
        assert json.loads(capsys.readouterr().out)["beta_fs2_per_cm"] == 0.0
        assert run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "3",
                   "--path1", "vacuum:1m", "--wavelength", "1550", "--json") == 0
        assert json.loads(capsys.readouterr().out)["gdd_sum_fs2"] == 0.0

    def test_media_air_away_from_800_nm_has_no_silica_equivalent(self, tmp_path, capsys):
        assert run(tmp_path, "media", "--material", "air", "--wavelength", "1550", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert "length_equivalent_to_1cm_silica_m" not in payload
        assert payload["beta_fs2_per_cm"] == pytest.approx(0.0531, rel=1e-2)


BAD_INPUTS = [
    ("width", "--sigma-phi", "3.7e11", "--n", "3", "--path1", "silica:1.2.3cm"),
    ("scan", "--sigma-phi", "3.7e11", "--n-min", "1", "--n-max", "10",
     "--path2", "air:1e-3.5km"),
    ("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "10", "--wavelength", "-5"),
    ("transition", "--sigma-phi", "3.7e11", "--B", "10", "--wavelength", "-5"),
    ("transition", "--sigma-phi", "3.7e11", "--B", "10", "--wavelength", "inf"),
    # media resolves every material at the carrier, so it checks the wavelength too.
    ("media", "--material", "silica", "--wavelength", "-5"),
    ("media", "--material", "vacuum", "--wavelength", "0"),
    ("width", "--sigma-phi", "3.7e11", "--n", "3", "--path1", "air:1e308km"),
    # Two finite GDD terms whose sum leaves float64.
    ("width", "--sigma-phi", "3.7e11", "--n", "3",
     "--path1", "silica:7e305cm", "--path1", "silica:7e305cm"),
    # A coherent state needs --v and --u; a Fock state takes neither.
    ("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "10", "--v", "1.2", "--state", "coherent"),
    ("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "10", "--u", "0.8"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=[" ".join(argv[:1] + argv[-2:]) for argv in BAD_INPUTS])
def test_bad_input_is_domain_error(tmp_path, capsys, argv):
    assert exit_code(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("qtiming: error:")


@pytest.mark.parametrize("flags, message", [
    (("--state", "coherent", "--v", "1.2"), "state 'coherent' needs both coherent amplitudes, v and u"),
    (("--u", "0.8",), "state 'anti' takes no coherent amplitudes v and u"),
], ids=["coherent-without-u", "anti-with-u"])
def test_state_pairing_error_reads_in_the_clis_terms(tmp_path, capsys, flags, message):
    assert run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "10", *flags) == 2
    assert capsys.readouterr().err == f"qtiming: error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_B_error_names_B(tmp_path, capsys, value):
    assert run(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "3", f"--B={value}") == 2
    assert capsys.readouterr().err == (
        f"qtiming: error: the total GDD B must be finite, got {float(value)} fs^2\n")


NEGATIVE_VALUES = [
    # (argv, exit code), the negative value last.  argparse's own rule reads
    # only -\d+ and -\d*\.\d+ as numbers, so each of these once ended in
    # "expected one argument" and exit 1.
    (("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "-1e5"), 0),
    (("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "-5."), 0),
    (("surface", "--preset", "fig3", "--beta", "-2.5e2"), 0),
    (("media", "--material", "air", "--temperature", "-2e1"), 0),
    (("media", "--material", "air", "--temperature", "-1E1"), 0),
    (("width", "--n", "3", "--B", "500", "--sigma-phi", "-3.7e11"), 2),
    (("width", "--sigma-phi", "3.7e11", "--B", "500", "--n", "-1e0"), 2),
    (("transition", "--sigma-phi", "3.7e11", "--B", "10", "--wavelength", "-8e2"), 2),
    (("media", "--material", "air", "--temperature", "-3e2"), 2),
    (("media", "--material", "air", "--temperature", "-inf"), 2),
    (("media", "--material", "air", "--pressure", "-1E3"), 2),
    (("media", "--material", "air", "--rh", "-.5e0"), 2),
    # Grid bounds are domain errors too, as in BAD_GRIDS.
    (("scan", "--preset", "fig2", "--n-min", "-1e0"), 2),
]


@pytest.mark.parametrize("argv, code", NEGATIVE_VALUES,
                         ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in NEGATIVE_VALUES])
def test_negative_value_after_a_space_is_the_flags_value(tmp_path, capsys, argv, code):
    assert exit_code(tmp_path / "space", *argv) == code
    err = capsys.readouterr().err
    assert "expected one argument" not in err and "Traceback" not in err
    # The same exit as the --flag=VALUE form, which argparse never misreads.
    assert exit_code(tmp_path / "equals", *argv[:-2], f"{argv[-2]}={argv[-1]}") == code


EXTREME_BANDWIDTHS = [
    (*argv, "--sigma-phi", sigma_phi)
    for argv in (("width", "--n", "3", "--B", "500"), ("transition", "--B", "500"),
                 ("surface", "--preset", "fig3"))
    for sigma_phi in ("1e308", "1e-308")
]


@pytest.mark.parametrize("argv", EXTREME_BANDWIDTHS,
                         ids=[" ".join(argv[:1] + argv[-1:]) for argv in EXTREME_BANDWIDTHS])
def test_extreme_bandwidth_exits_without_output(tmp_path, capsys, argv):
    assert exit_code(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "sigma_phi" in err
    assert not list(tmp_path.iterdir())


# Each command, and the quantity its error names.
PHASE, VARIANCE = "quantum dispersion phase squared", "classical variance"
OVERFLOWING_LAWS = {
    ("width", "--sigma-phi", "1e91", "--n", "3", "--B", "1e300"): PHASE,
    ("scan", "--sigma-phi", "1e91", "--B", "1e300",
     "--n-min", "1", "--n-max", "10", "--n-points", "3"): VARIANCE,
    ("width", "--sigma-phi", "1e91", "--n", "1e12", "--B", "1e300"): PHASE,
    ("transition", "--sigma-phi", "3.7e11", "--B", "1e-320"): "transition photon number",
    ("width", "--sigma-phi", "1e91", "--n", "3", "--B", "500"): PHASE,
    ("width", "--sigma-phi", "3.7e11", "--n", "1e12", "--B", "1e150"): PHASE,
    ("width", "--sigma-phi", "3.7e11", "--n", "1e12", "--B", "1e300"): PHASE,
    ("width", "--sigma-phi", "1e91", "--n", "1e12", "--B", "1e150"): PHASE,
    ("width", "--sigma-phi", "1e78", "--n", "1e12", "--B", "1e230"): PHASE,
    ("scan", "--sigma-phi", "3.7e11", "--B", "1e300",
     "--n-min", "1", "--n-max", "10", "--n-points", "3"): VARIANCE,
}


@pytest.mark.parametrize("argv", OVERFLOWING_LAWS,
                         ids=[" ".join(argv) for argv in OVERFLOWING_LAWS])
def test_closed_form_overflow_exits_without_output(tmp_path, capsys, argv):
    # Accepted inputs whose closed form leaves float64 exit 2 rather than
    # report inf (or end in a ZeroDivisionError, for the transition).
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert exit_code(tmp_path, *argv) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert f"{OVERFLOWING_LAWS[argv]} overflows float64 at sigma_phi" in err
    assert not list(tmp_path.iterdir())


UNDERFLOWING_LAWS = [
    ("transition", "--sigma-phi", "1e85", "--B", "1e300"),
    ("width", "--sigma-phi", "1e-40", "--n", "1e12", "--B", "1e-300"),
]


@pytest.mark.parametrize("argv", UNDERFLOWING_LAWS,
                         ids=[" ".join(argv) for argv in UNDERFLOWING_LAWS])
def test_closed_form_underflow_exits_without_output(tmp_path, capsys, argv):
    # A positive law whose float result is 0 (N_t, the asymptotic width) once
    # exited 0 and reported 0.0.
    assert exit_code(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "underflows float64 at sigma_phi" in err
    assert not list(tmp_path.iterdir())


# Each once exited 2: the finite difference that took air's beta reached past
# the window's edges, 350 and 1700 nm, or its roundoff guard fired inside it.
EXACT_AIR_COMMANDS = [
    *[("media", "--material", "air", *flags, "--formula", formula)
      for flags in (("--wavelength", "350"), ("--wavelength", "1618"),
                    ("--wavelength", "1550", "--temperature", "50", "--pressure", "95000"),
                    ("--pressure", "1"),
                    ("--wavelength", "350", "--temperature", "-20"),
                    ("--wavelength", "350", "--temperature", "50"),
                    ("--wavelength", "1700", "--temperature", "-20"),
                    ("--wavelength", "1700", "--temperature", "50"))
      for formula in ("edlen", "owens")],
    ("media", "--material", "air", "--wavelength", "1618", "--formula", "owens", "--rh", "0.2"),
    ("transition", "--sigma-phi", "3.7e11", "--B", "500", "--wavelength", "1618"),
]


@pytest.mark.parametrize("argv", EXACT_AIR_COMMANDS, ids=" ".join)
def test_air_dispersion_holds_across_the_validity_window(tmp_path, argv):
    assert exit_code(tmp_path, *argv) == 0
    report = json.loads((tmp_path / f"{argv[0]}_report.json").read_text())
    value = report["beta_fs2_per_cm" if argv[0] == "media" else "equivalent_air_total_m"]
    assert 0 < value < math.inf


@pytest.mark.parametrize("formula", ["edlen", "owens"])
def test_air_near_vacuum_reports_its_length(tmp_path, formula):
    # beta is 1.05e-306 fs^2/cm; the length once overflowed on the way, as
    # |gdd| / beta before its division by 100.
    argv = ("media", "--material", "air", "--formula", formula, "--pressure", "1e-300")
    assert exit_code(tmp_path, *argv) == 0
    report = json.loads((tmp_path / "media_report.json").read_text())
    assert 0 < report["length_equivalent_to_1cm_silica_m"] < math.inf


def test_air_pressure_whose_refractivity_overflows_exits_without_output(tmp_path, capsys):
    # Edlén's refractivity once came out inf here, and beta nan.
    assert exit_code(tmp_path, "media", "--material", "air", "--pressure", "1e308") == 2
    err = capsys.readouterr().err
    assert err == ("qtiming: error: Edlen refractivity overflows float64 at temperature_c = 15, "
                   "pressure_pa = 1e+308, relative_humidity = 0\n")
    assert "nan" not in err and not list(tmp_path.iterdir())


UNWRITABLE_OUTPUTS = {
    "out-dir is a file": ("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "10",
                          "--out-dir", "{dir}/kept.txt"),
    "out is a directory": ("scan", "--preset", "fig2", "--out", ".", "--out-dir", "{dir}"),
    "out in a missing directory": ("verify", "--suite", "quadrature",
                                   "--out", "sub/x.json", "--out-dir", "{dir}"),
    # The report is opened before the suites run, so none of them runs.
    "verify all into a missing directory": ("verify", "--suite", "all", "--out", "sub/x.json",
                                            "--out-dir", "{dir}"),
}


@pytest.mark.parametrize("name", UNWRITABLE_OUTPUTS)
def test_unwritable_output_is_usage_error(tmp_path, capsys, monkeypatch, name):
    # Nothing is written and nothing is removed: the file already in the
    # output directory, and the directory itself, are left as they were.
    # No verification suite runs for a report that cannot be written.
    (tmp_path / "kept.txt").write_text("kept\n")
    for suite in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, suite, lambda *_: pytest.fail("a suite ran"))
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(dir=tmp_path) for arg in UNWRITABLE_OUTPUTS[name]])
    assert excinfo.value.code == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert "qtiming: error: cannot write " in err
    assert "[pass]" not in out and "[FAIL]" not in out
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


WRITE_ERRORS = {
    # A file-size limit in bytes, below the size of the output it breaks.
    "width": (["width", "--sigma-phi", "3.7e11", "--n", "10", "--B", "500"],
              0, "width_report.json"),
    "scan": (["scan", "--preset", "fig2"], 2048, "scan.csv"),
    "verify": (["verify", "--suite", "quadrature"], 2048, "verification_report.json"),
}


@pytest.mark.parametrize("name", WRITE_ERRORS)
def test_write_error_is_usage_error(tmp_path, name):
    # Under a file-size limit the write fails with EFBIG (CPython ignores
    # SIGXFSZ): one error line and exit 1, the partial file removed and no
    # manifest written.
    import resource

    argv, limit, output = WRITE_ERRORS[name]

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    result = subprocess.run([sys.executable, "-m", "qtiming", *argv, "--out-dir", str(tmp_path)],
                            env=_child_env(), capture_output=True, text=True, timeout=120,
                            preexec_fn=limit_file_size)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert f"qtiming: error: cannot write {tmp_path / output}: File too large\n" in result.stderr
    assert not list(tmp_path.iterdir())


def test_manifest_write_error_is_usage_error(tmp_path, capsys, monkeypatch):
    dump_json = cli._dump_json

    def full_disk(fh, payload):
        if payload.get("schema") == cli.MANIFEST_SCHEMA:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        dump_json(fh, payload)

    monkeypatch.setattr(cli, "_dump_json", full_disk)
    assert exit_code(tmp_path, "width", "--sigma-phi", "3.7e11", "--n", "10", "--B", "500") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"qtiming: error: cannot write {tmp_path / 'width_manifest.json'}: " \
        f"{os.strerror(errno.ENOSPC)}\n" in err
    assert [p.name for p in tmp_path.iterdir()] == ["width_report.json"]


# Argv property test: every drawn command line ends in exit 0, 1 or 2 with
# no traceback and no RuntimeWarning, and a 0 exit writes only finite numbers.
EXTREMES = ("0", "-0.0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-308", "5e-324")


def _numbers(*typical):
    # About half typical values, so that some command lines succeed.
    return st.one_of(st.sampled_from(typical), st.sampled_from(EXTREMES))


def _flag(name, values):
    # --flag=VALUE, so that values such as -inf are not read as flags.
    return values.map(lambda value: [f"{name}={value}"])


def _repeated(name, values):
    return st.lists(values, max_size=2).map(lambda vs: [f"{name}={v}" for v in vs])


SEGMENTS = st.one_of(
    st.sampled_from(["silica:1cm", "air:10km", "vacuum:0m", "fused_silica:2.5m", "silica:400cm"]),
    st.sampled_from(["silica:0cm", "silica:-1cm", "silica:1e308km", "air:1e-308cm",
                     "silica:5e-324m", "silica:1.2.3cm", "air:1e-3.5km", "diamond:1cm", "silica",
                     ":1cm", "silica:1", "silica:nancm", "silica:infcm", "silica:1e400m",
                     "air:-0km", "silica:7e305cm"]),
)
GRID_POINTS = st.sampled_from(["-1", "0", "1", "2", "3", "40"])  # one writer block
SIGMA_PHI_FLAG = _flag("--sigma-phi", _numbers("3.7e11", "1e9", "1e14"))
MEDIA_FLAGS = [
    _flag("--wavelength", _numbers("800", "350", "1700", "1e5")),
    _flag("--B", _numbers("500", "36523", "-250", "1e300", "1e-320")),
    _repeated("--path1", SEGMENTS),
    _repeated("--path2", SEGMENTS),
]
# Per command: the flags every drawn command line gives, then those it may give.
COMMAND_FLAGS = {
    "width": ([SIGMA_PHI_FLAG, _flag("--n", _numbers("1", "3", "100", "7305", "1e12"))],
              [*MEDIA_FLAGS,
               _flag("--state", st.sampled_from(["anti", "corr", "coherent"])),
               _flag("--v", _numbers("1.2", "0.8", "3")),
               _flag("--u", _numbers("1.2", "0.8", "3"))]),
    "scan": ([], [SIGMA_PHI_FLAG, *MEDIA_FLAGS,
                  _flag("--preset", st.just("fig2")),
                  _flag("--n-min", _numbers("1", "10", "1e6")),
                  _flag("--n-max", _numbers("1", "1e4", "1e6")),
                  _flag("--n-points", st.sampled_from(["-1", "0", "1", "2", "121", "1000"]))]),
    "surface": ([], [_flag("--sigma-phi", _numbers("3.7e11", "1e9")),
                     _flag("--beta", _numbers("250", "-250", "1e300")),
                     _flag("--preset", st.just("fig3")),
                     _flag("--n-min", _numbers("1", "10")),
                     _flag("--n-max", _numbers("1e4", "100")),
                     _flag("--n-points", GRID_POINTS),
                     _flag("--x-min", _numbers("0", "5")),
                     _flag("--x-max", _numbers("200", "5")),
                     _flag("--x-points", GRID_POINTS),
                     _flag("--clip", st.sampled_from(["none", "unity"]))]),
    "transition": ([], [SIGMA_PHI_FLAG, *MEDIA_FLAGS, _flag("--preset", st.just("ntrans-1cm"))]),
    "media": ([_flag("--material", st.sampled_from(["air", "silica", "fused_silica", "vacuum",
                                                    "diamond", ""]))],
              [_flag("--formula", st.sampled_from(["edlen", "owens"])),
               _flag("--wavelength", _numbers("800", "350", "1700", "1e5")),
               _flag("--temperature", _numbers("15", "-20", "50", "-257.14", "-273.15")),
               _flag("--pressure", _numbers("101325", "1e3")),
               _flag("--rh", _numbers("0.2", "1", "0.5"))]),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    given_flags, optional_flags = COMMAND_FLAGS[command]
    argv = [command]
    for flag in [*given_flags, *(f for f in optional_flags if draw(st.booleans()))]:
        argv += draw(flag)
    return argv


def _numbers_in(value):
    if isinstance(value, dict):
        return [x for v in value.values() for x in _numbers_in(v)]
    if isinstance(value, list):
        return [x for v in value for x in _numbers_in(v)]
    return [value] if isinstance(value, (int, float)) else []


@settings(max_examples=150, deadline=None)
@given(argv=command_lines())
# Two finite GDD terms whose sum leaves float64, a pair the draws seldom reach.
@example(argv=["width", "--sigma-phi=3.7e11", "--n=3",
               "--path1=silica:7e305cm", "--path1=silica:7e305cm"])
def test_any_command_line_exits_cleanly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main([*argv, "--out-dir", out_dir])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), stderr.getvalue()
        assert gc.get_freeze_count() == 0  # in-process main(argv) never freezes
        assert "Traceback" not in stderr.getvalue()
        assert "RuntimeWarning" not in stderr.getvalue()
        if code == 1:
            assert stderr.getvalue().startswith(f"usage: qtiming {argv[0]} "), stderr.getvalue()
        if code != 0:
            return
        outputs = sorted(Path(out_dir).iterdir())
        assert {p.suffix for p in outputs} <= {".csv", ".json"} and len(outputs) == 2
        for path in outputs:
            if path.suffix == ".json":
                numbers = _numbers_in(json.loads(path.read_text()))
            else:
                with open(path, newline="") as fh:
                    numbers = [float(cell) for row in list(csv.reader(fh))[1:] for cell in row]
            assert all(math.isfinite(x) for x in numbers), path.name


NONFINITE_OUTPUTS = [
    # Each once exited 0 with a non-finite number in its report or manifest,
    # or with a RuntimeWarning on stderr, or (the last) with a carrier
    # frequency 2 pi c / 1e-320 nm of inf.  The air entry's length, 2.4e314 m
    # for 1 cm of silica, lies beyond float64.
    ("media", "--material", "silica", "--temperature", "nan"),
    ("media", "--material", "air", "--pressure", "1e-308"),
    ("surface", "--preset", "fig3", "--x-max", "1e308"),
    ("width", "--sigma-phi", "3.7e11", "--n", "10", "--B", "500", "--wavelength", "1e-320"),
]


@pytest.mark.parametrize("argv", NONFINITE_OUTPUTS, ids=" ".join)
def test_nonfinite_result_exits_without_output(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert exit_code(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("qtiming: error:")
    assert not list(tmp_path.iterdir())


def _child_env(**env: str) -> dict:
    """An environment that imports this qtiming, with ``env`` as its only BLAS thread variables."""
    src = str(Path(qtiming.__file__).resolve().parents[1])
    inherited = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
    return {**inherited, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def _probe(code: str, **env: str) -> str:
    """Last line of standard output of ``code`` run in a fresh interpreter importing this qtiming."""
    result = subprocess.run([sys.executable, "-c", code], env=_child_env(**env),
                            capture_output=True, text=True, check=True)
    return result.stdout.strip().splitlines()[-1]


# numpy serves the array paths, and the oracle, the sampler and the pool
# modules only `verify`; no command loads scipy.
_UNLOADED = ("numpy", "scipy", "qtiming.oracle", "qtiming.montecarlo",
             "concurrent.futures", "multiprocessing")


# dataclasses, and the inspect it imports, cost a cold start ~13 ms; the value
# classes are frozen records that need neither.  numpy imports inspect itself.
_RECORD_MODULES = ("dataclasses", "inspect")


@pytest.mark.parametrize("module", ["qtiming", "qtiming.cli"])
def test_import_leaves_numpy_scipy_and_samplers_unloaded(module):
    # The CSV writer's tempfile and shutil load on first use too.  They, and
    # the modules records do without, are checked against what the
    # interpreter loaded before the import, since a site hook may load them
    # at start-up.
    late = ("tempfile", "shutil", *_RECORD_MODULES)
    probe = (f"import sys; before = set(sys.modules); import {module}; "
             f"print([m for m in {_UNLOADED!r} if m in sys.modules] + "
             f"[m for m in {late!r} if m in sys.modules and m not in before])")
    assert _probe(probe) == "[]"


def test_every_public_name_resolves():
    from qtiming import montecarlo

    assert [name for name in qtiming.__all__ if not hasattr(qtiming, name)] == []
    # Each export is its home module's own public object, not a copy.
    for name, module in qtiming._HOME.items():
        home = importlib.import_module(f"qtiming.{module}")
        assert name in home.__all__, (module, name)
        assert getattr(qtiming, name) is getattr(home, name), (module, name)
    # The sampler that `verify` calls; sample_classical is its one-N wrapper.
    assert "sample_classical_scaling" in qtiming.__all__
    assert qtiming.sample_classical_scaling is montecarlo.sample_classical_scaling


def test_dir_lists_every_export_before_it_loads():
    assert _probe("import qtiming; print(set(qtiming.__all__) <= set(dir(qtiming)))") == "True"


def test_bare_import_loads_no_submodule_and_submodules_still_resolve():
    probe = ("import sys, qtiming; "
             "loaded = [m for m in sys.modules if m.startswith('qtiming.')]; "
             "print([loaded, qtiming.media.__name__, qtiming.oracle.__name__])")
    assert _probe(probe) == "[[], 'qtiming.media', 'qtiming.oracle']"


def test_verify_suites_load_no_scipy():
    # The samplers draw their normals with numpy alone.
    probe = "\n".join([
        "import sys, tempfile",
        "from qtiming import cli",
        "with tempfile.TemporaryDirectory() as out:",
        "    code = cli.main(['verify', '--suite', 'all', '--out-dir', out])",
        "print([code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))])",
    ])
    assert _probe(probe) == "[0, []]"


@pytest.mark.parametrize("argv", [
    ["width", "--sigma-phi", "3.7e11", "--n", "7305", "--B", "500", "--json"],
    ["width", "--sigma-phi", "3.7e11", "--n", "100",
     "--path1", "silica:1cm", "--path2", "silica:1cm"],
    ["width", "--sigma-phi", "3.7e11", "--n", "10", "--B", "500",
     "--state", "coherent", "--v", "1.2", "--u", "0.8"],
    ["transition", "--preset", "ntrans-1cm"],
    ["media", "--material", "air", "--formula", "owens"],
    ["media", "--material", "silica"],
], ids=["width-B", "width-paths", "width-coherent", "transition", "media-air",
        "media-silica"])
def test_report_commands_never_load_numpy(tmp_path, argv):
    # Scalar closed forms go through math.  argparse's help formatter imports
    # shutil, so only tempfile is checked among the CSV writer's modules.
    late = ("tempfile", *_RECORD_MODULES)
    probe = (f"import sys; before = set(sys.modules); from qtiming.cli import main; "
             f"code = main({[*argv, '--out-dir', str(tmp_path)]!r}); "
             f"print([code] + [m for m in {_UNLOADED!r} if m in sys.modules] + "
             f"[m for m in {late!r} if m in sys.modules and m not in before])")
    assert _probe(probe) == "[0]"


_FIG2 = ["scan", "--preset", "fig2"]


def _as_program(tmp_path, argv, prelude="pass", **env: str) -> dict:
    """What ``main()`` left behind when it ran as the program.

    That is the exit code, the thread count, the BLAS thread variables and
    the frozen object count (``gc.get_freeze_count()``).  ``main()`` reads
    ``argv`` from ``sys.argv``, in a fresh interpreter that first runs
    ``prelude``; a ``SystemExit`` from it gives the exit code.  The thread
    count is None without Linux's /proc.
    """
    probe = "\n".join([
        f"import gc, json, os, sys; {prelude}",
        f"sys.argv = ['qtiming', *{[*argv, '--out-dir', str(tmp_path)]!r}]",
        "from qtiming.cli import main, _BLAS_THREAD_VARIABLES",
        "try:",
        "    code = main()",
        "except SystemExit as exc:",
        "    code = exc.code",
        "task = '/proc/self/task'",
        "print(json.dumps({'code': code, "
        "'threads': len(os.listdir(task)) if os.path.isdir(task) else None, "
        "'env': {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}, "
        "'frozen': gc.get_freeze_count()}))",
    ])
    return json.loads(_probe(probe, **env))


def _blas_env(**values: str) -> dict:
    return {name: values.get(name) for name in cli._BLAS_THREAD_VARIABLES}


def test_program_entry_starts_blas_single_threaded(tmp_path):
    result = _as_program(tmp_path, _FIG2)
    assert result["code"] == 0
    assert result["env"] == _blas_env(OPENBLAS_NUM_THREADS="1")
    assert result["frozen"] > 0


@pytest.mark.parametrize("argv, code, prelude", [
    (["width", "--sigma-phi", "3.7e11", "--n", "10", "--B", "500"], 0, "pass"),
    (["width", "--sigma-phi", "1e308", "--n", "10", "--B", "500"], 2, "pass"),
    # A quadrature budget too small for any case fails the suite.
    (["verify", "--suite", "quadrature"], 3,
     "import qtiming.oracle; qtiming.oracle._MAX_POINTS = 120"),
    (["scan", "--n-min", "1", "--n-max", "10", "--B", "0"], 1, "pass"),  # parser.error's SystemExit
    (["width", "--no-such-flag"], 1, "pass"),                           # parse_args' SystemExit
    (["--version"], 0, "pass"),
], ids=["returns-0", "returns-2", "returns-3", "usage-error", "bad-flag", "version"])
def test_program_entry_freezes_the_heap_on_every_exit(tmp_path, argv, code, prelude):
    # Finalisation's collections skip a frozen heap; the exit code stays.
    result = _as_program(tmp_path, argv, prelude)
    assert (result["code"], result["frozen"] > 0) == (code, True)


def test_program_entry_freezes_the_heap_after_a_closed_output(tmp_path):
    # The BrokenPipeError path: the reader is gone before the first line.
    probe = (f"import gc, sys; sys.argv = ['qtiming', 'width', '--sigma-phi', '3.7e11', "
             f"'--n', '10', '--B', '500', '--out-dir', {str(tmp_path)!r}]; "
             "from qtiming.cli import main; code = main(); "
             "sys.stderr.write(f'{code} {gc.get_freeze_count() > 0}')")
    child = subprocess.Popen([sys.executable, "-c", probe], env=_child_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    _, stderr = child.communicate(timeout=60)
    assert (child.returncode, stderr) == (0, "1 True")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_cold_scan_runs_on_one_thread(tmp_path):
    # Without the default, numpy's OpenBLAS starts a spinning worker per
    # further CPU as it loads.
    assert _as_program(tmp_path, _FIG2)["threads"] == 1


@pytest.mark.parametrize("variable", cli._BLAS_THREAD_VARIABLES)
def test_user_blas_thread_setting_is_kept(tmp_path, variable):
    result = _as_program(tmp_path, _FIG2, **{variable: "2"})
    assert result["code"] == 0
    assert result["env"] == _blas_env(**{variable: "2"})


def test_program_entry_after_numpy_leaves_environment_alone(tmp_path):
    # OpenBLAS has read its thread count by then; setting it would only mislead.
    result = _as_program(tmp_path, _FIG2, prelude="import numpy")
    assert result["code"] == 0
    assert result["env"] == _blas_env()


def test_library_and_in_process_main_leave_environment_alone(tmp_path):
    # main(argv) runs before anything loads numpy, so only argv tells it
    # that this process is a host, not the program.
    # Nor does either freeze the heap, which would put the host's objects
    # beyond its cycle collector for good.
    probe = ("import gc, os; before = dict(os.environ); import qtiming, qtiming.cli; "
             f"code = qtiming.cli.main({[*_FIG2, '--out-dir', str(tmp_path)]!r}); "
             "import qtiming.distributions, qtiming.media, qtiming.montecarlo, qtiming.oracle; "
             "print([code, dict(os.environ) == before, gc.get_freeze_count()])")
    assert _probe(probe) == "[0, True, 0]"


README_COMMANDS = {
    # The README's CLI examples, with the quadrature suite for its `verify --suite all`.
    "width-paths": ["width", "--sigma-phi", "3.7e11", "--n", "100",
                    "--path1", "silica:1cm", "--path2", "silica:1cm"],
    "width-json": ["width", "--sigma-phi", "3.7e11", "--n", "7305", "--B", "500", "--json"],
    "scan-fig2": ["scan", "--preset", "fig2"],
    "surface-fig3": ["surface", "--preset", "fig3"],
    "transition": ["transition", "--preset", "ntrans-1cm"],
    "media-owens": ["media", "--material", "air", "--formula", "owens", "--rh", "0.2"],
    "verify-quadrature": ["verify", "--suite", "quadrature"],
}


def _outputs(out_dir: Path) -> dict:
    """Every file in ``out_dir``: bytes, or a manifest's JSON without its timestamp."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith("_manifest.json"):
            manifest = json.loads(path.read_text())
            del manifest["timestamp_utc"]
            files[path.name] = manifest
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("name", README_COMMANDS)
def test_python_dash_m_runs_the_program(tmp_path, capsys, name):
    # The program (python -m, which also freezes the heap at the end) and
    # main(argv) in-process write into the same directory in turn, so every
    # path they print or record is the same.
    argv = [*README_COMMANDS[name], "--out-dir", str(tmp_path / "out")]
    result = subprocess.run([sys.executable, "-m", "qtiming", *argv],
                            env=_child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    program = _outputs(tmp_path / "out")
    (tmp_path / "out").rename(tmp_path / "program")
    assert main(argv) == 0
    assert (result.stdout, result.stderr) == capsys.readouterr()
    assert _outputs(tmp_path / "out") == program
    assert len(program) == 2


def test_readme_cli_section_names_only_existing_flags():
    # A flag the parser no longer has must not stay documented.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    options = {option for parser in [cli.build_parser(), *_subcommands().values()]
               for action in parser._actions for option in action.option_strings}
    assert "--sigma-phi" in named
    assert sorted(named - options) == []


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,report", [
    (["width", "--sigma-phi", "3.7e11", "--n", "10", "--B", "500"], "width_report.json"),
    (["verify", "--suite", "quadrature"], "verification_report.json"),
], ids=["width", "verify"])
def test_closed_output_exits_1_without_traceback(tmp_path, argv, report, unbuffered):
    # As under `qtiming ... | head -1`: the reader is gone before the first
    # line.  A buffered stdout fails at its flush, an unbuffered one at print.
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen([sys.executable, "-m", "qtiming", *argv, "--out-dir", str(tmp_path)],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    _, stderr = child.communicate(timeout=60)
    assert (child.returncode, stderr) == (1, "")
    assert (tmp_path / report).is_file()
    assert (tmp_path / f"{argv[0]}_manifest.json").is_file()


def _report_42(out: Path, suite: str, **setting: str) -> bytes:
    """The report bytes of a child ``verify --suite <suite> --seed 42`` under ``setting``."""
    env = {k: v for k, v in _child_env().items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    subprocess.run([sys.executable, "-m", "qtiming", "verify", "--suite", suite,
                    "--seed", "42", "--out-dir", str(out)],
                   env={**env, **setting}, capture_output=True, check=True, timeout=120)
    return (out / "verification_report.json").read_bytes()


@pytest.fixture(scope="module")
def montecarlo_report_42(tmp_path_factory):
    return _report_42(tmp_path_factory.mktemp("default"), "montecarlo")


@pytest.fixture(scope="module")
def quadrature_report_42(tmp_path_factory):
    return _report_42(tmp_path_factory.mktemp("default"), "quadrature")


CPU_PATHS = pytest.mark.parametrize("setting", [
    # The slope used to come from LAPACK on the OpenBLAS kernel the CPU
    # selects; this kernel moved it by an ulp at seed 42.
    {"OPENBLAS_CORETYPE": "Haswell"},
    # numpy's SIMD loops without AVX-512, where the CPU has it.
    {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
], ids=["openblas-haswell", "numpy-without-avx512"])


class TestVerify:
    def test_montecarlo_suite_passes_and_is_deterministic(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "--suite", "montecarlo", "--seed", "42") == 0
        first = json.loads((tmp_path / "verification_report.json").read_text())
        assert run(tmp_path, "verify", "--suite", "montecarlo", "--seed", "42") == 0
        second = json.loads((tmp_path / "verification_report.json").read_text())
        assert first["cases"] == second["cases"]
        assert first["passed"] is True

    @pytest.mark.parametrize("seed,slope", [
        (7, -0.4996840532989655), (42, -0.5003648116067596), (2718, -0.5004237794178796),
    ], ids=["7", "42", "2718"])
    def test_slope_is_the_exact_fit_rounded_once(self, monkeypatch, seed, slope):
        from qtiming import montecarlo

        widths = []
        scaling = montecarlo.sample_classical_scaling

        def recording(*args):
            estimates = scaling(*args)
            widths.extend(estimate.sigma_hat for estimate in estimates)
            return estimates

        monkeypatch.setattr(montecarlo, "sample_classical_scaling", recording)
        case = verify._montecarlo_suite(seed)[0]
        # log10 N is 0, 1, 2 and 3 for N = 1, 10, 100 and 1000, so the
        # least-squares slope is (-3 y0 - y1 + y2 + 3 y3) / 10.
        with decimal.localcontext() as context:
            context.prec = 60
            y = [decimal.Decimal(width).log10() for width in widths]
            exact = (-3 * y[0] - y[1] + y[2] + 3 * y[3]) / 10
        assert case["name"] == "classical-averaging-slope"
        assert case["slope"] == float(exact) == slope

    @CPU_PATHS
    def test_montecarlo_report_does_not_depend_on_the_cpu_path(
            self, tmp_path, montecarlo_report_42, setting):
        assert _report_42(tmp_path, "montecarlo", **setting) == montecarlo_report_42

    @CPU_PATHS
    def test_quadrature_report_does_not_depend_on_the_cpu_path(
            self, tmp_path, quadrature_report_42, setting):
        assert _report_42(tmp_path, "quadrature", **setting) == quadrature_report_42

    @pytest.mark.parametrize("defect", ["width", "mean", "nondeterministic"])
    def test_quantum_cases_fail_a_defective_sampler(self, monkeypatch, defect):
        from qtiming import montecarlo
        from qtiming.distributions import TimingDistribution

        sample_quantum = montecarlo.sample_quantum
        calls = []

        def defective(dist, cfg):
            calls.append(cfg)
            # 1 % of the width and 0.05 fs of the mean are each ~7.5 SE at
            # the case's 280,000 trials.
            mean, sigma = dist.mean, dist.sigma
            if defect == "width":
                sigma *= 1.01
            elif defect == "mean":
                mean += 0.05
            else:
                mean += 1e-9 * len(calls)
            return sample_quantum(TimingDistribution(dist.variable, mean=mean, sigma=sigma), cfg)

        monkeypatch.setattr(montecarlo, "sample_quantum", defective)
        monkeypatch.setattr(montecarlo, "sample_classical_scaling",
                            lambda *args: [montecarlo.WidthEstimate(10 ** -(k / 2), 0.0, 100, 0.0, 0.0)
                                           for k in range(4)])
        cases = {case["name"]: case for case in verify._montecarlo_suite(7)}
        failed = {"width": "quantum-sampler-consistency", "mean": "quantum-sampler-consistency",
                  "nondeterministic": "determinism-per-seed"}[defect]
        assert [name for name, case in cases.items() if not case["passed"]] == [failed]
        consistency = cases["quantum-sampler-consistency"]
        assert (consistency["tolerance_se"], consistency["estimate"]["n_samples"]) == (5.0, 280_000)

    def test_tiny_budget_surfaces_convergence_failure(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_POINTS", 120)
        code = run(tmp_path, "verify", "--suite", "quadrature")
        assert code == 3

        def reject(constant):
            raise ValueError(f"{constant} is not JSON (RFC 8259)")

        report = json.loads((tmp_path / "verification_report.json").read_text(),
                            parse_constant=reject)
        assert report["passed"] is False
        failed = [case for case in report["cases"] if "error" in case]
        assert failed
        for case in failed:
            assert type(case["points_used"]) is int and case["points_used"] <= 120

    def test_quadrature_suite_keeps_its_cases_at_the_least_budget(self, monkeypatch):
        # The least budget that returns every case gives the same cases; one
        # point less fails exactly the cases that used all of it.
        cases = verify.SUITES["quadrature"](0)
        assert all(case["passed"] for case in cases)
        least = max(case["points_used"] for case in cases)
        monkeypatch.setattr(oracle, "_MAX_POINTS", least)
        assert verify.SUITES["quadrature"](0) == cases
        monkeypatch.setattr(oracle, "_MAX_POINTS", least - 1)
        short = verify.SUITES["quadrature"](0)
        assert [case["name"] for case in short if not case["passed"]] == [
            case["name"] for case in cases if case["points_used"] == least]

    @pytest.mark.parametrize("name", verify.SUITES)
    def test_each_suite_takes_only_a_seed(self, name):
        assert list(inspect.signature(verify.SUITES[name]).parameters) == ["seed"]

    def test_suite_choices_are_the_table(self):
        suite = next(action for action in _subcommands()["verify"]._actions
                     if action.dest == "suite")
        assert suite.choices == [*verify.SUITES, "all"]

    def test_all_runs_each_suite_once_in_table_order(self, tmp_path, monkeypatch, capsys):
        calls = []

        def recorder(name):
            def suite(seed):
                calls.append((name, seed))
                return [{"name": name, "passed": True}]
            return suite

        for name in verify.SUITES:
            monkeypatch.setitem(verify.SUITES, name, recorder(name))
        assert run(tmp_path, "verify", "--suite", "all", "--seed", "7") == 0
        assert calls == [(name, 7) for name in verify.SUITES]
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert [case["name"] for case in report["cases"]] == list(verify.SUITES)

    def test_suite_that_raises_leaves_no_report(self, tmp_path, monkeypatch):
        def interrupted(seed):
            raise KeyboardInterrupt

        monkeypatch.setitem(verify.SUITES, "montecarlo", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path, "verify", "--suite", "montecarlo")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("target", ["file", "devnull"])
    def test_suite_that_raises_keeps_a_symlinked_report(self, tmp_path, monkeypatch, target):
        def interrupted(seed):
            raise KeyboardInterrupt

        (tmp_path / "target.json").write_text("kept\n")
        destination = tmp_path / "target.json" if target == "file" else Path(os.devnull)
        (tmp_path / "report.json").symlink_to(destination)
        monkeypatch.setitem(verify.SUITES, "montecarlo", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(tmp_path, "verify", "--suite", "montecarlo", "--out", "report.json")
        assert (tmp_path / "report.json").is_symlink()
        assert Path(os.devnull).exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "target.json"]

    def test_report_lines_printed(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "--suite", "montecarlo", "--seed", "1") == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [f"[pass] {case['name']}" for case in report["cases"]]
        assert lines[-1].startswith("verification passed; report: ")

    @pytest.mark.parametrize("suite", ["quadrature", "montecarlo", "all"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_before_any_suite(self, tmp_path, capsys, monkeypatch,
                                                      suite, seed):
        # The quadrature suite ignores the seed; it once ran, and its report
        # recorded the seed, before the Monte Carlo suite rejected it.
        def never(*args):
            raise AssertionError("a suite ran")

        monkeypatch.setitem(verify.SUITES, "quadrature", never)
        monkeypatch.setitem(verify.SUITES, "montecarlo", never)
        assert exit_code(tmp_path, "verify", "--suite", suite, "--seed", seed) == 2
        err = capsys.readouterr().err
        assert err.startswith("qtiming: error: --seed") and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_largest_seed_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "quadrature", lambda seed: [])
        assert run(tmp_path, "verify", "--suite", "quadrature", "--seed", str(2**64 - 1)) == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert report["seed"] == 2**64 - 1


MANIFEST_RUNS = {
    "width": ("width", "--sigma-phi", "3.7e11", "--n", "2", "--B", "100"),
    "scan": ("scan", "--sigma-phi", "3.7e11", "--B", "0",
             "--n-min", "1", "--n-max", "10", "--n-points", "2"),
    "surface": ("surface", "--preset", "fig3"),
    "transition": ("transition", "--preset", "ntrans-1cm"),
    "media": ("media", "--material", "air", "--formula", "owens", "--rh", "0.2"),
    "verify": ("verify", "--suite", "quadrature"),
}


def _subcommands() -> dict:
    """The subcommands' parsers, by name."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestManifests:
    @pytest.mark.parametrize("command", MANIFEST_RUNS)
    def test_manifest_matches_schema(self, tmp_path, command):
        import jsonschema
        from importlib import resources

        assert run(tmp_path, *MANIFEST_RUNS[command]) == 0
        manifest = json.loads((tmp_path / f"{command}_manifest.json").read_text())
        schema = json.loads(
            (resources.files("qtiming") / "data" / "manifest.schema.json").read_text()
        )
        jsonschema.validate(manifest, schema)
        assert manifest["command"] == command
        assert manifest["outputs"] and all(Path(p).exists() for p in manifest["outputs"])

    def test_runs_cover_every_command(self):
        assert set(MANIFEST_RUNS) == set(_subcommands())

    @pytest.mark.parametrize("command", MANIFEST_RUNS)
    def test_manifest_records_every_flag(self, tmp_path, command):
        # Each flag of the command, under its manifest key, with the value
        # the command ran with; only the output flags and --preset are left out.
        assert run(tmp_path, *MANIFEST_RUNS[command]) == 0
        parameters = json.loads((tmp_path / f"{command}_manifest.json").read_text())["parameters"]
        args = cli.build_parser().parse_args(MANIFEST_RUNS[command])
        cli._apply_preset(args)
        flags = [action.dest for action in _subcommands()[command]._actions
                 if action.option_strings
                 and action.dest not in ("help", "out_dir", "json", "preset")]
        assert parameters == {cli._PARAMETER_KEYS.get(flag, flag): getattr(args, flag)
                              for flag in flags}

    def test_out_dir_environment_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTIMING_OUT_DIR", str(tmp_path))
        assert main(["scan", "--sigma-phi", "3.7e11", "--B", "0",
                     "--n-min", "1", "--n-max", "10", "--n-points", "2"]) == 0
        assert (tmp_path / "scan.csv").exists()

    def test_csv_is_crlf_terminated(self, tmp_path):
        run(tmp_path, "scan", "--sigma-phi", "3.7e11", "--B", "0",
            "--n-min", "1", "--n-max", "10", "--n-points", "2")
        raw = (tmp_path / "scan.csv").read_bytes()
        assert b"\r\n" in raw

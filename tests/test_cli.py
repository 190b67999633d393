"""End-to-end tests of the command-line interface.

Each command runs through ``main(argv)`` against a temp directory; outputs
are parsed back and checked, including manifest round-trips.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtiming
from qtiming import cli
from qtiming.cli import main

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

    def test_empty_range_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run(tmp_path, "scan", "--sigma-phi", "3.7e11", "--B", "0",
                "--n-min", "10", "--n-max", "1")
        assert excinfo.value.code == 1

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
    # (argv, exit code): usage errors exit 1, invalid media 2.
    (("scan", "--preset", "fig2", "--n-points", "0"), 1),
    (("scan", "--preset", "fig2", "--n-max", "inf"), 1),
    (("scan", "--preset", "fig2", "--n-min", "nan"), 1),
    (("scan", "--preset", "fig2", "--n-min", "1e4", "--n-max", "10"), 1),
    (("surface", "--preset", "fig3", "--n-points", "0"), 1),
    (("surface", "--preset", "fig3", "--x-points", "0"), 1),
    (("surface", "--preset", "fig3", "--n-max", "inf"), 1),
    (("surface", "--preset", "fig3", "--n-min", "nan"), 1),
    (("surface", "--preset", "fig3", "--n-min", "100", "--n-max", "10"), 1),
    (("surface", "--preset", "fig3", "--x-max", "inf"), 1),
    (("surface", "--preset", "fig3", "--x-min", "nan"), 1),
    (("surface", "--preset", "fig3", "--x-min", "50", "--x-max", "5"), 1),
    (("surface", "--preset", "fig3", "--beta", "nan"), 2),
    (("surface", "--preset", "fig3", "--beta", "inf"), 2),
]


@pytest.mark.parametrize("argv, code", BAD_GRIDS,
                         ids=[" ".join(argv[:1] + argv[3:]) for argv, _ in BAD_GRIDS])
def test_bad_grid_exits_without_csv(tmp_path, capsys, argv, code):
    assert exit_code(tmp_path, *argv) == code
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_preset_csvs_match_recorded_digests(tmp_path):
    # SHA-256 of the fig2 and fig3 CSVs as first released; a refactor of the
    # closed forms or the writer must keep these bytes.
    assert run(tmp_path, "scan", "--preset", "fig2") == 0
    assert run(tmp_path, "surface", "--preset", "fig3") == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("scan.csv", "surface.csv")}
    assert digests == {
        "scan.csv": "fe44b33279b3bb866f5bc288075bd99259757548d85bc94f4e8e6e5d14da243b",
        "surface.csv": "8b7cf602ae90e08c09f3ac66036dbd0d0d4bc32ddc2a3f289193f4cff47049ab",
    }


def test_grid_fine_csvs_match_recorded_digests(tmp_path):
    # The benchmark's seed-0 grid-fine jobs: 180,000 and 200,000 rows, so
    # unlike fig2 and fig3 they span many writer blocks.
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
    cli._write_csv(args, header, columns, {})
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


FAILING_CHILD = """
import os, sys
from qtiming import cli
parent = os.getpid()
format_block = cli._format_block
def failing_in_child(column_slices):
    if os.getpid() != parent:
        raise ZeroDivisionError("formatter failed in the child")
    return format_block(column_slices)
cli._format_block = failing_in_child
cli._CSV_BLOCK_ROWS = 8
cli.usable_cpus = lambda: 3
sys.exit(cli.main(sys.argv[1:]))
"""


def test_csv_writer_child_failure_leaves_no_csv_and_no_manifest(tmp_path):
    (tmp_path / "earlier.txt").write_text("kept\n")
    src = str(Path(qtiming.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run(
        [sys.executable, "-c", FAILING_CHILD, "scan", "--sigma-phi", "3.7e11", "--B", "500",
         "--n-min", "1", "--n-max", "100", "--n-points", "40", "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "formatter failed in the child" in result.stderr
    assert "exited with status 1" in result.stderr
    assert "wrote" not in result.stdout  # no child returned into main
    assert [p.name for p in tmp_path.iterdir()] == ["earlier.txt"]


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
    ], ids=" ".join)
    def test_air_outside_formula_range_exits_without_report(self, tmp_path, capsys, flags):
        assert run(tmp_path, "media", "--material", "air", *flags) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("qtiming: error:")
        assert not (tmp_path / "media_report.json").exists()


BAD_INPUTS = [
    ("width", "--sigma-phi", "3.7e11", "--n", "3", "--path1", "silica:1.2.3cm"),
    ("scan", "--sigma-phi", "3.7e11", "--n-min", "1", "--n-max", "10",
     "--path2", "air:1e-3.5km"),
    ("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "10", "--wavelength", "-5"),
    ("transition", "--sigma-phi", "3.7e11", "--B", "10", "--wavelength", "-5"),
    ("transition", "--sigma-phi", "3.7e11", "--B", "10", "--wavelength", "inf"),
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=[" ".join(argv[:1] + argv[-2:]) for argv in BAD_INPUTS])
def test_bad_input_is_domain_error(tmp_path, capsys, argv):
    assert exit_code(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("qtiming: error:")


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


OVERFLOWING_LAWS = [
    ("width", "--sigma-phi", "1e91", "--n", "3", "--B", "500"),
    ("scan", "--sigma-phi", "3.7e11", "--B", "1e300",
     "--n-min", "1", "--n-max", "10", "--n-points", "3"),
    ("width", "--sigma-phi", "3.7e11", "--n", "1e12", "--B", "1e300"),
    ("transition", "--sigma-phi", "3.7e11", "--B", "1e-320"),
]


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
    assert "overflows float64 at sigma_phi" in err
    assert not list(tmp_path.iterdir())


UNWRITABLE_OUTPUTS = {
    "out-dir is a file": ("width", "--sigma-phi", "3.7e11", "--n", "3", "--B", "10",
                          "--out-dir", "{dir}/kept.txt"),
    "out is a directory": ("scan", "--preset", "fig2", "--out", ".", "--out-dir", "{dir}"),
    "out in a missing directory": ("verify", "--suite", "quadrature", "--max-points", "120",
                                   "--out", "sub/x.json", "--out-dir", "{dir}"),
}


@pytest.mark.parametrize("name", UNWRITABLE_OUTPUTS)
def test_unwritable_output_is_usage_error(tmp_path, capsys, name):
    # Nothing is written and nothing is removed: the file already in the
    # output directory, and the directory itself, are left as they were.
    (tmp_path / "kept.txt").write_text("kept\n")
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(dir=tmp_path) for arg in UNWRITABLE_OUTPUTS[name]])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "qtiming: error: cannot write " in err
    assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text() == "kept\n"


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
                     "air:-0km"]),
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
        assert "Traceback" not in stderr.getvalue()
        assert "RuntimeWarning" not in stderr.getvalue()
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
    # or with a RuntimeWarning on stderr.
    ("media", "--material", "silica", "--temperature", "nan"),
    ("transition", "--sigma-phi", "3.7e11", "--B", "1e308"),
    ("surface", "--preset", "fig3", "--x-max", "1e308"),
]


@pytest.mark.parametrize("argv", NONFINITE_OUTPUTS, ids=" ".join)
def test_nonfinite_result_exits_without_output(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert exit_code(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("qtiming: error:")
    assert not list(tmp_path.iterdir())


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the samplers' normal transform; commands that never
    # sample must not pay for importing it.
    src = str(Path(qtiming.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, qtiming.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
    # Nor the oracle, the sampler, or the pool modules only the sampler needs.
    unloaded = ("qtiming.oracle", "qtiming.montecarlo", "concurrent.futures", "multiprocessing")
    probe = f"import sys, qtiming.cli; print([m for m in {unloaded!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestVerify:
    def test_montecarlo_suite_passes_and_is_deterministic(self, tmp_path, capsys):
        assert run(tmp_path, "verify", "--suite", "montecarlo", "--seed", "42") == 0
        first = json.loads((tmp_path / "verification_report.json").read_text())
        assert run(tmp_path, "verify", "--suite", "montecarlo", "--seed", "42") == 0
        second = json.loads((tmp_path / "verification_report.json").read_text())
        assert first["cases"] == second["cases"]
        assert first["passed"] is True

    def test_tiny_budget_surfaces_convergence_failure(self, tmp_path, capsys):
        code = run(tmp_path, "verify", "--suite", "quadrature", "--max-points", "120")
        assert code == 3
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert report["passed"] is False
        assert any("error" in case for case in report["cases"])

    def test_report_lines_printed(self, tmp_path, capsys):
        run(tmp_path, "verify", "--suite", "montecarlo", "--seed", "1")
        out = capsys.readouterr().out
        assert "[pass]" in out


MANIFEST_RUNS = {
    "width": ("width", "--sigma-phi", "3.7e11", "--n", "2", "--B", "100"),
    "scan": ("scan", "--sigma-phi", "3.7e11", "--B", "0",
             "--n-min", "1", "--n-max", "10", "--n-points", "2"),
    "surface": ("surface", "--preset", "fig3"),
    "transition": ("transition", "--preset", "ntrans-1cm"),
    "media": ("media", "--material", "air", "--formula", "owens", "--rh", "0.2"),
    "verify": ("verify", "--suite", "quadrature"),
}


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

"""Tests of the benchmark itself: failure counting, statistics, spans.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import outputs
import run
import stats
import workloads
from spans import Spans, Tracer

ROOT = Path(__file__).resolve().parents[2]


def _job(workload: str, name: str) -> workloads.Job:
    return next(j for j in workloads.WORKLOADS[workload](workloads.DEFAULT_SEED)
                if j.name == name)


@pytest.fixture
def runner(tmp_path):
    return run.Runner(ROOT, tmp_path / "work", time.perf_counter() + 120.0)


@pytest.mark.parametrize("name", ["scan-fig2", "surface-fig3"])
def test_preset_csv_passes_every_check(runner, name):
    inv = runner.invoke(_job("cli-presets", name))
    assert inv.problems == []
    assert inv.rows == {"scan-fig2": 121, "surface-fig3": 33 * 41}[name]


def _write_fig2(tmp_path: Path) -> Path:
    from qtiming.cli import main
    assert main(["scan", "--preset", "fig2", "--out-dir", str(tmp_path)]) == 0
    return tmp_path / "scan.csv"


def _rewrite(path: Path, edit) -> None:
    lines = path.read_bytes().split(b"\r\n")
    path.write_bytes(b"\r\n".join(edit(lines)))


def _scaled(row: bytes, column: int, factor: float) -> bytes:
    cells = row.split(b",")
    cells[column] = repr(float(cells[column]) * factor).encode()
    return b",".join(cells)


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:5] + lines[6:],                                   # a row lost
    lambda lines: lines[:5] + [_scaled(lines[5], 1, 1.001)] + lines[6:],   # a wrong value
    lambda lines: lines[:5] + [b"1.0,nan,1.0"] + lines[6:],                # non-finite
    lambda lines: [b"N,p_q,p_c"] + lines[1:],                              # wrong header
    lambda lines: lines[:5] + [b"1.0,not-a-number,1.0"] + lines[6:],       # unparsable
], ids=["row-lost", "wrong-value", "nan", "header", "garbage"])
def test_corrupted_csv_is_a_failure(tmp_path, edit):
    path = _write_fig2(tmp_path)
    job = _job("cli-presets", "scan-fig2")
    assert job.problems(tmp_path) == []
    _rewrite(path, edit)
    assert job.problems(tmp_path)


def test_changed_bytes_break_the_digest(tmp_path):
    path = _write_fig2(tmp_path)
    # Same value, different formatting: the physics checks pass, the digest does not.
    _rewrite(path, lambda lines: lines[:2] + [lines[2].replace(b",", b",+", 1)] + lines[3:])
    problems = _job("cli-presets", "scan-fig2").problems(tmp_path)
    assert problems == ["scan.csv: SHA-256 differs from the recorded digest"]


def test_nonzero_exit_is_a_failure(runner):
    bad = workloads.Job("bad-width",
                        ("width", "--sigma-phi", "-1", "--n", "1", "--B", "0"))
    inv = runner.invoke(bad)
    assert inv.returncode == 2
    assert inv.failed and inv.problems == ["exit code 2"]


def test_traceback_on_stderr_is_a_failure(runner, monkeypatch):
    script = "import sys; sys.stderr.write('Traceback (most recent call last):\\n')"
    monkeypatch.setattr(runner, "command", lambda job, out, spans: [sys.executable, "-c", script])
    inv = runner.invoke(_job("cli-presets", "transition"))
    assert inv.returncode == 0
    assert inv.problems == ["traceback on stderr"]


def test_verify_report_checks(tmp_path):
    report = tmp_path / "verification_report.json"
    report.write_text('{"passed": true, "seed": 7, "cases": []}')
    assert outputs.check_verify(report, 7) == ["verification_report.json: 0 cases, expected 39"]
    report.write_text('{"passed": false, "seed": 7, "cases": [%s]}'
                      % ",".join(["{}"] * outputs.VERIFY_CASES))
    assert outputs.check_verify(report, 7) == ["verification_report.json: passed is not true"]


@pytest.mark.parametrize("n, rank, percentile", [
    (1, None, 50.0),
    (19, None, 50.0),
    (20, None, 50.0),     # the 10th of 20 is below the median
    (21, 11, 100 * 11 / 21),
    (30, 20, 100 * 20 / 30),
    (100, 90, 90.0),
])
def test_tail_has_ten_samples_beyond_it(n, rank, percentile):
    values = list(np.random.default_rng(n).permutation(np.arange(1.0, n + 1)))
    value, p = stats.tail(values)
    assert p == pytest.approx(percentile)
    if rank is None:
        assert value == stats.median(values)
    else:
        assert value == rank
        assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_one_sample_per_cycle():
    def inv(wall, cpu, rss_kib):
        return run.Invocation("job", False, wall, cpu, rss_kib, 0, [])
    timed = [[inv(1.0, 1.5, 2048), inv(2.0, 2.0, 1024)],
             [inv(1.2, 1.0, 1024), inv(2.2, 2.5, 3072)],
             [inv(0.9, 1.0, 1024), inv(3.0, 3.0, 1024)]]
    m = run.end_to_end(timed, [4.0, 1.0, 2.0])
    assert m["wall_p50_s"] == {"value": pytest.approx(3.4), "samples": 3}
    assert m["cpu_p50_s"]["value"] == pytest.approx(3.5)
    assert m["peak_rss_mb"]["value"] == pytest.approx(2.0)
    assert m["setup_s"] == {"value": 2.0, "samples": 3}


def _spans(rows, names=("cli.main", "distributions.f", "distributions.g", "media.h")):
    """rows: (name index, parent, start, end)."""
    name, parent, start, end = zip(*rows)
    return Spans(names, name, parent, start, end, {})


def test_self_time_subtracts_direct_children_only():
    s = _spans([
        (0, -1, 0.0, 10.0),   # root
        (1, 0, 1.0, 3.0),     # child
        (2, 1, 1.5, 2.5),     # grandchild: counted in its parent, not in the root
        (3, 0, 4.0, 5.0),     # second child
    ])
    assert s.self_time(0) == pytest.approx(10.0 - 2.0 - 1.0)
    assert s.self_time(1) == pytest.approx(2.0 - 1.0)
    assert s.self_time(2) == pytest.approx(1.0)


def test_busy_counts_only_outermost_spans_of_a_layer():
    s = _spans([(0, -1, 0.0, 10.0), (1, 0, 1.0, 3.0), (2, 1, 1.5, 2.5), (3, 0, 4.0, 6.0)])
    assert s.busy("distributions") == (1, pytest.approx(2.0))
    assert s.busy("media") == (1, pytest.approx(2.0))
    assert s.busy("oracle") == (0, 0.0)


def test_tracer_records_parents_extras_and_round_trips(tmp_path):
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "distributions.inner",
                        lambda args, kwargs, result, exc: {"points": result})
    outer = tracer.wrap(lambda x: inner(x) * 2, "oracle.outer")
    assert tracer.call("cli.main", outer, 3) == 8
    tracer.save(tmp_path / "spans.npz")
    s = Spans.load(tmp_path / "spans.npz")
    assert [s.names[i] for i in s.name] == ["cli.main", "oracle.outer", "distributions.inner"]
    assert list(s.parent) == [-1, 0, 1]
    assert s.extra_values("distributions", "points") == [4]
    assert np.all(s.start <= s.end)
    assert s.start[0] <= s.start[1] <= s.start[2] and s.end[2] <= s.end[1] <= s.end[0]


def test_scipy_share_counts_outermost_scipy_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib.x",
        "import time:       200 |        300 |     scipy._lib",
        "import time:        50 |        350 |   scipy",
        "import time:        10 |         10 |       scipy.special._ufuncs",
        "import time:        40 |         50 |     scipy.special",
        "import time:        30 |         80 |   qtiming.montecarlo",
        "import time:         5 |        435 | qtiming",
        "import time:         7 |          7 | scipy.linalg",
    ])
    assert run.scipy_import_s(log) == pytest.approx((350 + 50 + 7) / 1e6)


def test_layer_map_covers_every_per_layer_metric_once():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    mapped = [name for row in layer_map["layers"] for name in row["per_layer"]]
    assert sorted(mapped) == sorted(m["name"] for m in declared["per_layer"])
    workloads_named = {w["name"] for w in declared["workloads"]}
    assert workloads_named == set(workloads.WORKLOADS)
    for row in layer_map["layers"]:
        for move in row["moves"]:
            assert move["workload"] in workloads_named
            assert move["metric"] in {m["name"] for m in declared["end_to_end"]}

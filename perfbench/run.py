"""qtiming benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload cli-presets --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each invocation is a cold child process with its own fresh
out-dir and empty HOME, XDG_CACHE_HOME and TMPDIR, started only after the
previous one exited (a closed loop with one client).  Everything the run
writes stays under ``.perfbench/`` in the checkout.

``--trace 0`` reports the end-to-end metrics from untraced invocations.
A workload is a cycle of jobs, and one sample is one whole cycle: its
summed wall and CPU time and its largest RSS.  setup_s is the median of
SETUP_REPEATS untimed invocations of one job, made before the cycles.
``--trace 1`` pairs each untraced invocation with a traced one that runs
the same job in-process with spans around each layer's public functions,
runs the per-layer probes, and reports the per-layer metrics.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the full result, with the environment block, sample counts and every
failure, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import environment
import outputs
import stats
from spans import Spans
from workloads import DEFAULT_SEED, WORKLOADS, Job

HERE = Path(__file__).resolve().parent
CLI_ENTRY = "import sys; from qtiming.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import qtiming.cli; "
                "print(time.perf_counter() - t0)")

RUN_DEADLINE_S = 170.0
"""Hard cap on one run; no invocation may end later than this."""
MIN_CYCLES = 4
"""Cycles per run, at least, however long they take."""
SETUP_REPEATS = 3
"""Untimed first invocations per run; setup_s is their median."""
IMPORT_PROBES = 3

END_TO_END_UNITS = {"wall_p50_s": "s", "wall_tail_s": "s", "cpu_p50_s": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Invocation:
    job: str
    traced: bool
    wall_s: float
    cpu_s: float
    rss_kib: int
    returncode: int
    problems: list[str]
    rows: int = 0
    bytes_out: int = 0
    spans: Spans | None = field(default=None, repr=False)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def record(self) -> dict:
        return {"job": self.job, "traced": self.traced, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "rss_kib": self.rss_kib,
                "returncode": self.returncode, "problems": self.problems}


class Runner:
    """Starts cold invocations one at a time and keeps their results."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.invocations: list[Invocation] = []
        src = str(root / "src")
        inherited = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))

    def command(self, job: Job, out: Path, spans_file: Path | None) -> list[str]:
        tail = [*job.argv, "--out-dir", str(out)]
        if spans_file is not None:
            return [sys.executable, str(HERE / "traced_child.py"), str(spans_file), "--", *tail]
        return [sys.executable, "-c", CLI_ENTRY, *tail]

    def fresh_dirs(self) -> dict[str, Path]:
        base = self.work / f"inv-{len(self.invocations):05d}"
        dirs = {name: base / name for name in ("out", "home", "cache", "tmp")}
        for path in dirs.values():
            path.mkdir(parents=True)
        return dirs

    def run(self, argv: list[str], dirs: dict[str, Path]):
        """Run ``argv`` to completion; returns (wall, cpu, rss, code, stdout, stderr)."""
        env = dict(self.env, HOME=str(dirs["home"]), XDG_CACHE_HOME=str(dirs["cache"]),
                   TMPDIR=str(dirs["tmp"]))
        stdout_path, stderr_path = dirs["tmp"] / "stdout", dirs["tmp"] / "stderr"
        with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=dirs["out"], env=env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL)
            killer = threading.Timer(max(self.deadline - time.perf_counter(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode,
                stdout_path.read_text(errors="replace"), stderr_path.read_text(errors="replace"))

    def invoke(self, job: Job, traced: bool = False) -> Invocation:
        dirs = self.fresh_dirs()
        spans_file = dirs["tmp"] / "spans.npz" if traced else None
        wall, cpu, rss, code, _, stderr = self.run(self.command(job, dirs["out"], spans_file),
                                                   dirs)
        problems = outputs.process_problems(code, stderr)
        if not problems:
            problems = job.problems(dirs["out"])
        inv = Invocation(job.name, traced, wall, cpu, rss, code, problems)
        inv.rows, inv.bytes_out = _output_size(dirs["out"])
        if traced and spans_file.is_file():
            inv.spans = Spans.load(spans_file)
        elif traced:
            inv.problems.append("traced child wrote no spans")
        shutil.rmtree(dirs["out"].parent)
        self.invocations.append(inv)
        return inv

    def probe(self, argv: list[str]) -> tuple[str, str]:
        """Run a measuring child in fresh directories; returns (stdout, stderr)."""
        dirs = self.fresh_dirs()
        code, stdout, stderr = self.run(argv, dirs)[3:]
        shutil.rmtree(dirs["out"].parent)
        if code != 0:
            raise RuntimeError(f"{argv[1:3]} failed with exit code {code}:\n{stderr}")
        return stdout, stderr

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


def _output_size(out: Path) -> tuple[int, int]:
    """(CSV data rows, bytes of every file) written to ``out``."""
    rows = size = 0
    for path in out.rglob("*"):
        if path.is_file():
            size += path.stat().st_size
            if path.suffix == ".csv":
                rows += max(path.read_bytes().count(b"\n") - 1, 0)
    return rows, size


def set_up(runner: Runner, jobs: list[Job]) -> list[float]:
    """SETUP_REPEATS untimed first invocations, each in fresh directories; their walls.

    They run the job with the first name, so that the set-up job does not
    depend on the order the seed gave the cycle.
    """
    job = min(jobs, key=lambda j: j.name)
    return [runner.invoke(job).wall_s for _ in range(SETUP_REPEATS)]


def cycles(runner: Runner, jobs: list[Job], seconds: float, step) -> list[list]:
    """Run whole cycles of ``step(job)`` over ``jobs`` for about ``seconds``.

    A new cycle starts only if the mean cycle so far would end within
    ``seconds`` (or fewer than MIN_CYCLES have run) and within the run
    deadline.  Returns the results of ``step``, one list per cycle.
    """
    start = time.perf_counter()
    done = []
    while True:
        done.append([step(job) for job in jobs])
        elapsed = time.perf_counter() - start
        per_cycle = elapsed / len(done)
        wanted = len(done) < MIN_CYCLES or elapsed + per_cycle <= seconds
        if not wanted or per_cycle * 1.5 > runner.time_left():
            return done


def end_to_end(timed: list[list[Invocation]], setup_walls: list[float]) -> dict:
    """One sample per cycle: summed wall and CPU, and the largest RSS, of its invocations."""
    walls = [sum(inv.wall_s for inv in cycle) for cycle in timed]
    cpus = [sum(inv.cpu_s for inv in cycle) for cycle in timed]
    rss = [max(inv.rss_kib for inv in cycle) / 1024.0 for cycle in timed]
    tail, percentile = stats.tail(walls)
    n = len(timed)
    return {
        "wall_p50_s": {"value": stats.median(walls), "samples": n},
        "wall_tail_s": {"value": tail, "samples": n, "percentile": percentile},
        "cpu_p50_s": {"value": stats.median(cpus), "samples": n},
        "peak_rss_mb": {"value": stats.median(rss), "samples": n},
        "setup_s": {"value": stats.median(setup_walls), "samples": len(setup_walls)},
    }


def import_probes(runner: Runner) -> dict:
    """``import qtiming.cli`` in fresh interpreters.

    The time comes from plain interpreters; the scipy share from separate
    ones run with ``-X importtime``, whose logging would inflate the time.
    """
    totals = [float(runner.probe([sys.executable, "-c", IMPORT_PROBE])[0].split()[-1])
              for _ in range(IMPORT_PROBES)]
    scipy_shares = [scipy_import_s(runner.probe(
        [sys.executable, "-X", "importtime", "-c", "import qtiming.cli"])[1])
        for _ in range(IMPORT_PROBES)]
    return {"cli.import_s": stats.median(totals),
            "cli.import_scipy_s": stats.median(scipy_shares)}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative seconds of the outermost ``scipy`` imports in an importtime log.

    The log lists a module after everything it imported, indented two
    spaces per level, so reading it backwards meets each parent before its
    children.
    """
    total_us = 0
    ancestors: list[str] = []
    for line in reversed(importtime_log.splitlines()):
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        cumulative, indent, name = int(match.group(2)), len(match.group(3)), match.group(4)
        depth = (indent - 1) // 2
        del ancestors[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for a in ancestors):
            total_us += cumulative
        ancestors.append(name)
    return total_us / 1e6


def probe_layers(runner: Runner, seed: int) -> dict:
    stdout, _ = runner.probe([sys.executable, str(HERE / "probes.py"), str(seed)])
    return json.loads(stdout.strip().splitlines()[-1])


def layer_metrics(cycle: list[Invocation]) -> dict:
    """Per-layer counts and times over one traced cycle of jobs."""
    m: dict[str, float] = {}
    main_self = rows = bytes_out = 0.0
    for inv in cycle:
        roots = inv.spans.find("cli.main")
        main_self += sum(inv.spans.self_time(int(r)) for r in roots)
        if roots.size:
            rows += inv.rows
            bytes_out += inv.bytes_out
    m["cli.main_self_s"] = main_self
    m["cli.rows"] = rows
    m["cli.bytes_out"] = bytes_out
    m["cli.ns_per_row"] = 1e9 * main_self / rows if rows else 0.0
    for layer in ("distributions", "media", "oracle", "montecarlo"):
        calls = busy = 0.0
        for inv in cycle:
            c, b = inv.spans.busy(layer)
            calls += c
            busy += b
        m[f"{layer}.calls"] = calls
        m[f"{layer}.busy_s"] = busy
    points = sum(sum(inv.spans.extra_values("oracle", "points")) for inv in cycle)
    errors = [e for inv in cycle for e in inv.spans.extra_values("oracle", "max_rel_err")]
    normals = sum(sum(inv.spans.extra_values("montecarlo", "normals")) for inv in cycle)
    m["oracle.cases"] = m.pop("oracle.calls")
    m["oracle.points"] = points
    m["oracle.points_per_s"] = points / m["oracle.busy_s"] if points else 0.0
    m["oracle.max_rel_err"] = max(errors, default=0.0)
    m["montecarlo.normals"] = normals
    m["montecarlo.normals_per_s"] = normals / m["montecarlo.busy_s"] if normals else 0.0
    return m


COUNTS = ("cli.rows", "distributions.calls", "media.calls", "oracle.cases",
          "oracle.points", "montecarlo.calls", "montecarlo.normals")


def per_layer(traced_cycles: list[list[Invocation]]) -> tuple[dict, list[str]]:
    """Counts from the first traced cycle, times as medians over cycles.

    Returns the metrics and a problem for each count that differed between
    cycles of the same jobs.
    """
    each = [layer_metrics(cycle) for cycle in traced_cycles]
    metrics = {name: statistics.median(m[name] for m in each) for name in each[0]}
    problems = []
    for name in COUNTS:
        metrics[name] = each[0][name]
        if any(m[name] != each[0][name] for m in each):
            problems.append(f"{name} differs between traced cycles")
    return metrics, problems


def write_trace(path: Path, traced: list[Invocation]) -> None:
    """All spans of the run in one file; spans of one invocation share its id."""
    names = sorted({n for inv in traced for n in inv.spans.names})
    columns = {"invocation": [], "name": [], "parent": [], "start": [], "end": []}
    extras = {}
    for k, inv in enumerate(traced):
        s = inv.spans
        remap = np.array([names.index(n) for n in s.names], dtype=np.uint16)
        columns["invocation"].append(np.full(len(s), k, dtype=np.uint32))
        columns["name"].append(remap[s.name] if len(s) else np.empty(0, np.uint16))
        columns["parent"].append(s.parent.astype(np.int32))
        columns["start"].append(s.start)
        columns["end"].append(s.end)
        extras.update({f"{k}:{span}": v for span, v in s.extras.items()})
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **{k: np.concatenate(v) for k, v in columns.items()},
             meta=np.array(json.dumps({"names": names, "jobs": [i.job for i in traced],
                                       "extras": extras})))


def measure_end_to_end(runner: Runner, jobs: list[Job], seconds: float) -> dict:
    setup_walls = set_up(runner, jobs)
    return end_to_end(cycles(runner, jobs, seconds, runner.invoke), setup_walls)


def measure_layers(runner: Runner, jobs: list[Job], seconds: float, seed: int,
                   trace_path: Path) -> tuple[dict, list[str]]:
    """Traced run: returns the per-layer metrics and any count that did not repeat."""
    runner.invoke(jobs[0])          # warm-up, untimed
    paired = cycles(runner, jobs, seconds,
                    lambda job: (runner.invoke(job), runner.invoke(job, traced=True)))
    traced_cycles = [[traced for _, traced in cycle] for cycle in paired]
    complete = [c for c in traced_cycles if all(inv.spans is not None for inv in c)]
    if not complete:
        raise RuntimeError("no traced cycle produced spans")
    values, count_problems = per_layer(complete)
    values.update(import_probes(runner))
    values.update(probe_layers(runner, seed))
    untraced = stats.median([sum(u.wall_s for u, _ in cycle) for cycle in paired])
    traced = stats.median([sum(t.wall_s for _, t in cycle) for cycle in paired])
    values["trace.overhead_frac"] = traced / untraced - 1.0
    write_trace(trace_path, [inv for cycle in complete for inv in cycle])
    return {name: {"value": value} for name, value in values.items()}, count_problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtiming" / "__init__.py").is_file():
        print(f"no qtiming sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    state = root / ".perfbench"
    work = state / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env_block = environment.collect(root, args.seed)
    runner = Runner(root, work, started + RUN_DEADLINE_S)
    jobs = WORKLOADS[args.workload](args.seed)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_block}
    try:
        if args.trace == 0:
            metrics, units = measure_end_to_end(runner, jobs, args.seconds), END_TO_END_UNITS
        else:
            trace_path = state / "trace" / f"{args.workload}-seed{args.seed}.npz"
            metrics, count_problems = measure_layers(runner, jobs, args.seconds, args.seed,
                                                     trace_path)
            units = load_units()
            result["trace_file"] = str(trace_path.relative_to(root))
            result["count_problems"] = count_problems
    finally:
        shutil.rmtree(work, ignore_errors=True)

    invocations = runner.invocations
    failed = sum(inv.failed for inv in invocations) + bool(result.get("count_problems"))
    attempted = len(invocations)
    for name, metric in metrics.items():
        metric["unit"] = units[name]
    result.update({
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "metrics": metrics, "invocations": [inv.record() for inv in invocations],
        "wall_s": time.perf_counter() - started,
    })
    results = state / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    for inv in invocations:
        if inv.failed:
            print(f"FAILED {inv.job}{' (traced)' if inv.traced else ''}: "
                  f"{'; '.join(inv.problems)}")
    for problem in result.get("count_problems", []):
        print(f"FAILED count check: {problem}")
    print(f"environment: {json.dumps(env_block, sort_keys=True)}")
    print(f"fail_frac: {failed}/{attempted}; result: {results.relative_to(root)}")
    if args.trace == 1:
        print(f"per-layer trace: {result['trace_file']}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def load_units() -> dict[str, str]:
    """Per-layer units, as declared in BENCHMARK.json next to this directory."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())

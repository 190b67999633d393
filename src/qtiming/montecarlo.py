"""Stochastic verification of the width laws.

Streams are Philox4x64-10 counter-based generators keyed by
``(seed, substream)``, with normal variates produced by the inverse-CDF
transform of 53-bit uniforms (k + 1/2) * 2^-53.  Both choices are
deliberate: the stream is reproducible across platforms and thread
counts, with no rejection-loop nondeterminism.  Trials are consumed in fixed-size shards of
``SHARD_TRIALS`` trials.

The classical sampler splits each shard's photons into column blocks of at
most ``_DRAW_BLOCK`` variates; every ``(shard, block)`` pair has its own
substream (:func:`_stream_id`).  Each substream's rows are split into
equal slices of about ``_TASK_NORMALS`` variates (:func:`_slices`), and
each slice is one task for a thread pool sized to the CPUs this process
may use.  A task starts its slice's generator at the slice's first
variate by advancing the Philox counter, which skips exactly four raw
draws per step; the slices are cut so that every slice starts on a
multiple of four variates.  It draws the slice in row chunks of about
``_CHUNK_NORMALS`` variates (1 MiB, inside a core's L2 cache)
into one of the draw buffers the call allocates once per thread, and
returns the slice's per-trial row sums.  The sampler adds each slice's
row sums into its trials in block order.  Neither the thread count, the
slicing nor the chunking changes a bit of the result: a counter offset
reaches the same variates as drawing up to it, the row sum of one trial
never spans a chunk or a slice, and every trial sees the same additions
in the same order.
"""

from __future__ import annotations

import functools
import math
import queue
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._cpus import usable_cpus as _thread_count
from .distributions import TimingDistribution
from .errors import DomainError

__all__ = ["SamplerConfig", "WidthEstimate", "sample_quantum", "sample_classical"]

SHARD_TRIALS = 1 << 15
MAX_PHOTONS_PER_TRIAL = 1_000_000
_DRAW_BLOCK = 4_000_000  # cap on variates per (shard, block) substream
_TASK_NORMALS = 1 << 20  # variates per task: one slice of a substream's rows
# Variates drawn at once within a task: 1 MiB, inside a core's L2 cache.
# Each chunk takes the GIL four times; at 2^15, on a 2-vCPU Xeon, the two
# workers slept about twice as long waiting for it, at the same CPU time.
_CHUNK_NORMALS = 1 << 17


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    n_samples: int
    n_photons: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if self.n_samples < 100:
            raise DomainError(f"need at least 100 samples, got {self.n_samples}")
        if not 1 <= self.n_photons <= MAX_PHOTONS_PER_TRIAL:
            raise DomainError(
                f"n_photons must be in [1, {MAX_PHOTONS_PER_TRIAL}] for sampling"
            )


@dataclass(frozen=True)
class WidthEstimate:
    """Sample width and its uncertainty.

    For Gaussian data the standard error of the width estimate is
    sigma_hat / sqrt(2 (n - 1)).
    """

    sigma_hat: float
    standard_error: float
    n_samples: int
    mean_hat: float
    mean_standard_error: float

    def to_dict(self) -> dict:
        return {
            "sigma_hat_fs": self.sigma_hat,
            "standard_error_fs": self.standard_error,
            "n_samples": self.n_samples,
            "mean_hat_fs": self.mean_hat,
            "mean_standard_error_fs": self.mean_standard_error,
        }


def _stream_id(domain: int, shard: int, block: int = 0) -> int:
    # Disjoint key spaces for the two samplers, so equal seeds never share
    # a substream: 2 domain bits | 34 shard bits | 28 block bits.
    if shard >= 1 << 34 or block >= 1 << 28:
        raise DomainError("sampling stream index out of range")
    return (domain << 62) | (shard << 28) | block


def _generator(seed: int, stream: int) -> np.random.Generator:
    """The generator of the (seed, stream) substream, at its start."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _normals(gen: np.random.Generator, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """The next ``count`` standard normals of ``gen``'s stream, in ``out`` if given."""
    from scipy.special import ndtri  # deferred: importing scipy costs every CLI start

    # random() is k * 2^-53 for the top 53 bits k of one raw draw, the same k
    # that integers(0, 2^53) returns, so this is (k + 1/2) * 2^-53 in (0, 1).
    values = gen.random(count, out=out)
    values += 2.0 ** -54
    return ndtri(values, out=values)


def _estimate(values: np.ndarray) -> WidthEstimate:
    n = values.size
    sigma_hat = float(np.std(values, ddof=1))
    return WidthEstimate(
        sigma_hat=sigma_hat,
        standard_error=sigma_hat / math.sqrt(2.0 * (n - 1)),
        n_samples=n,
        mean_hat=float(np.mean(values)),
        mean_standard_error=sigma_hat / math.sqrt(n),
    )


def _shards(n_samples: int):
    start = 0
    shard = 0
    while start < n_samples:
        yield shard, min(SHARD_TRIALS, n_samples - start)
        start += SHARD_TRIALS
        shard += 1


def sample_quantum(dist: TimingDistribution, cfg: SamplerConfig) -> WidthEstimate:
    """Sample the collective observable directly from its Gaussian law.

    The law already describes the mean-time statistic, which is the object
    of every width claim, so no per-photon events are simulated here.
    """
    values = np.empty(cfg.n_samples)
    start = 0
    for shard, count in _shards(cfg.n_samples):
        normals = _normals(_generator(cfg.seed, _stream_id(0, shard)), count)
        values[start:start + count] = dist.mean + dist.sigma * normals
        start += count
    return _estimate(values)


def _in_order(pool: ThreadPoolExecutor, fn, tasks, window: int):
    """Yield ``fn(*task)`` for each task in task order, at most ``window`` in flight."""
    pending = deque()
    for task in tasks:
        pending.append(pool.submit(fn, *task))
        if len(pending) >= window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _slices(count: int, cols: int):
    """Row ranges ``(lo, hi)`` that split a ``count`` x ``cols`` substream into tasks.

    The slices are equal but for a shorter last one, each holds about
    ``_TASK_NORMALS`` variates, and every ``lo * cols`` is a multiple of 4,
    the raw draws one Philox counter step yields.
    """
    align = 4 // math.gcd(cols, 4)
    n_slices = -(-count * cols // _TASK_NORMALS)
    step = -(-count // n_slices)
    step = -(-step // align) * align
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)


def _classical_tasks(n_samples: int, n_photons: int):
    """``(trials, (stream, lo, hi, cols))`` for each task, in merge order.

    ``trials`` is the slice of all trials that rows ``lo:hi`` of the
    ``cols``-wide substream ``stream`` add to.
    """
    start = 0
    for shard, count in _shards(n_samples):
        width = max(1, _DRAW_BLOCK // count)
        for block, done in enumerate(range(0, n_photons, width)):
            cols = min(width, n_photons - done)
            for lo, hi in _slices(count, cols):
                yield slice(start + lo, start + hi), (_stream_id(1, shard, block), lo, hi, cols)
        start += count


def _block_row_sums(buffers: queue.SimpleQueue, seed: int, stream: int, lo: int, hi: int,
                    cols: int) -> np.ndarray:
    """Per-trial sums of rows ``lo:hi`` of the ``cols``-wide substream ``stream``.

    ``lo * cols`` must be a multiple of 4.  The variates are drawn into a
    buffer of at least ``max(_CHUNK_NORMALS, cols)`` floats, held from
    ``buffers`` for the length of the call.
    """
    gen = _generator(seed, stream)
    gen.bit_generator.advance(lo * cols // 4)
    sums = np.empty(hi - lo)
    rows = max(1, _CHUNK_NORMALS // cols)
    buf = buffers.get()
    try:
        for i in range(0, hi - lo, rows):
            j = min(i + rows, hi - lo)
            chunk = _normals(gen, (j - i) * cols, out=buf[:(j - i) * cols])
            chunk.reshape(j - i, cols).sum(axis=1, out=sums[i:j])
    finally:
        buffers.put(buf)
    return sums


def sample_classical(sigma_t: float, cfg: SamplerConfig) -> WidthEstimate:
    """Empirical width of per-trial averages of N classical pulse pairs.

    Each trial draws ``cfg.n_photons`` independent arrival-time differences
    of width ``sigma_t`` (fs) and averages them; the spread of the trial
    averages is expected to shrink like sigma_t / sqrt(N).
    """
    if not sigma_t > 0:
        raise DomainError(f"sigma_t must be positive, got {sigma_t}")
    n = cfg.n_photons
    threads = _thread_count()
    # One draw buffer per thread, allocated here in one size: the workers
    # allocate nothing large, so the peak memory does not depend on how
    # their draws and frees interleave.
    buffers = queue.SimpleQueue()
    for _ in range(threads):
        buffers.put(np.empty(max(_CHUNK_NORMALS, n)))
    # The tasks are listed twice, to submit and to merge, so that none of
    # them is held longer than it is in flight.
    draw = functools.partial(_block_row_sums, buffers, cfg.seed)
    work = (task for _, task in _classical_tasks(cfg.n_samples, n))
    sums = np.zeros(cfg.n_samples)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        row_sums = _in_order(pool, draw, work, 2 * threads)
        for (trials, _), part in zip(_classical_tasks(cfg.n_samples, n), row_sums):
            sums[trials] += part
    sums *= sigma_t
    sums /= n
    return _estimate(sums)

"""Stochastic verification of the width laws.

Each ``(seed, substream)`` stream is SFC64 seeded by
``SeedSequence(seed, spawn_key=(substream,))``.  SeedSequence splits both
integers into 32-bit words and pads the seed's to four before the
substream's follow, so distinct keys give it distinct word lists to hash.
A stream's normal variates are numpy's ``Generator.standard_normal`` on
it: the ziggurat method, which rejects and redraws a small share of its
raw draws.  So where a normal sits in the raw stream depends on the draws
before it, and a substream cannot be cut at a known position.  It never
is: one task draws each substream whole, from its start and in order (see
below), and the ziggurat keeps no state between calls but the bit
generator's, so a substream's normals have the same bits whatever thread
draws them and however its draw is chunked.  numpy promises these bits
per numpy version only (NEP 19 lets ``Generator``'s distribution
algorithms change between versions), and the ziggurat's rare tail and
wedge draws call the C library's ``log1p`` and ``exp``, so an estimate is
reproducible for the numpy version and C library that produced it.
Trials are consumed in fixed-size shards of ``SHARD_TRIALS`` trials.

Both samplers run through one task engine (:func:`_sums`), which sums each
trial's N normals from one stream domain: domain 0 for the quantum sampler,
whose trial is a single normal (N = 1), and domain 1 for the classical
sampler.  The engine splits each shard's photons into column blocks of at
most ``_DRAW_BLOCK`` variates; every ``(shard, block)`` pair has its own
substream (:func:`_stream_id`), whatever the photon number N.  At N
photons a shard's block reads the first ``count * w`` variates of its
substream as ``count`` rows of its width w, a prefix of what any larger N
reads, so :func:`sample_classical_scaling` draws each substream once, as
far as its widest width needs, and sums each trial's row at every width
it is read at.  Each substream is one task for a thread pool sized to the
CPUs this process may use.  The task draws the substream from its start
in chunks of whole rows at the widest width, about ``_CHUNK_NORMALS``
variates (1 MiB, inside a core's L2 cache), into one of the draw buffers
the call allocates once per thread.  A narrower row that a chunk's end
cuts keeps a copy of its head, and the next chunk completes it as one
contiguous row (:func:`_block_row_sums`).  Block 0's row sums go straight
into each N's trial sums, as their first terms; the engine adds later
blocks' row sums into them in block order.  Neither the thread count, the
chunking nor the other photon numbers of a call changes a bit of the
result: every row is summed whole, by the same numpy reduction, and every
trial sees the same additions in the same order.  (Writing block 0's row
sum gives the bits of adding it to zero, as a sampler that adds every
block would, up to the sign of a zero row sum, which no estimate sees.)
"""

from __future__ import annotations

import functools
import math
import operator
import queue
from collections import deque
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._cpus import usable_cpus as _thread_count
from ._record import record
from .constants import _check_finite, _finite_or_raise
from .distributions import TimingDistribution
from .errors import DomainError

__all__ = [
    "SamplerConfig", "WidthEstimate", "sample_quantum", "sample_classical",
    "sample_classical_scaling",
]

SHARD_TRIALS = 1 << 15
MAX_PHOTONS_PER_TRIAL = 1_000_000
_DRAW_BLOCK = 4_000_000  # cap on variates per (shard, block) substream
# Variates drawn at once within a task: 1 MiB, inside a core's L2 cache.
# A chunk is one standard_normal(out=) call and one row sum per width.  In
# the suite's classical call on a 2-vCPU Xeon, each of the two workers slept
# a median 10.8 ms of its ~0.6 s at 2^15 and 9.4 ms at 2^17 (its schedstat,
# 5 alternating runs each): the chunk size barely changes the GIL waits.
_CHUNK_NORMALS = 1 << 17


@record
class SamplerConfig:
    seed: int
    n_samples: int
    n_photons: int = 1

    def __post_init__(self):
        for name in ("seed", "n_samples", "n_photons"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if self.n_samples < 100:
            raise DomainError(f"need at least 100 samples, got {self.n_samples}")
        if not 1 <= self.n_photons <= MAX_PHOTONS_PER_TRIAL:
            raise DomainError(
                f"n_photons must be in [1, {MAX_PHOTONS_PER_TRIAL}] for sampling"
            )


@record
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
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _normals(gen: np.random.Generator, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """The next ``count`` standard normals of ``gen``'s stream, in ``out`` if given."""
    return gen.standard_normal(count, out=out)


def _estimate(values: np.ndarray) -> WidthEstimate:
    """The width and mean of ``values``; DomainError where either leaves float64."""
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_hat = _finite_or_raise(float(np.std(values, ddof=1)), "sample width", None)
        mean_hat = _finite_or_raise(float(np.mean(values)), "sample mean", None, positive=False)
    return WidthEstimate(
        sigma_hat=sigma_hat,
        standard_error=sigma_hat / math.sqrt(2.0 * (n - 1)),
        n_samples=n,
        mean_hat=mean_hat,
        mean_standard_error=sigma_hat / math.sqrt(n),
    )


def sample_quantum(dist: TimingDistribution, cfg: SamplerConfig) -> WidthEstimate:
    """Sample the collective observable directly from its Gaussian law.

    The law already describes the mean-time statistic, which is the object
    of every width claim, so no per-photon events are simulated here.  Each
    trial is one normal of domain 0: the one-photon row sum of the engine.
    So ``cfg.n_photons`` must be 1; ``dist`` carries the photon number.
    """
    if cfg.n_photons != 1:
        raise DomainError(f"sample_quantum draws one normal per trial: n_photons must be 1, "
                          f"got {cfg.n_photons}; the photon number enters through dist")
    values = _sums(cfg.seed, 0, cfg.n_samples, [1])[1]
    with np.errstate(over="ignore", invalid="ignore"):  # _estimate names what overflows
        values *= dist.sigma
        values += dist.mean
    return _estimate(values)


def _in_order(pool: ThreadPoolExecutor, fn, tasks, window: int):
    """Yield ``(key, fn(*args))`` for each ``(key, args)`` of ``tasks``, in task order.

    At most ``window`` tasks are in flight, and none is held longer.
    """
    pending = deque()
    for key, args in tasks:
        pending.append((key, pool.submit(fn, *args)))
        if len(pending) >= window:
            key, future = pending.popleft()
            yield key, future.result()
    while pending:
        key, future = pending.popleft()
        yield key, future.result()


def _tasks(domain: int, n_samples: int, photon_numbers):
    """``(block, stream, trials, targets)`` for each substream of ``domain``, in merge order.

    The task draws block ``block``'s substream ``stream`` for the shard
    whose trials are the slice ``trials``.  ``targets`` lists, widest first,
    ``(width, numbers)`` for each width the substream is read at: the row
    sums at ``width`` belong to those trials of each photon number in
    ``numbers``.
    """
    for shard, start in enumerate(range(0, n_samples, SHARD_TRIALS)):
        trials = slice(start, min(start + SHARD_TRIALS, n_samples))
        width = max(1, _DRAW_BLOCK // (trials.stop - start))
        for block, done in enumerate(range(0, max(photon_numbers), width)):
            users: dict[int, list[int]] = {}
            for n in photon_numbers:
                if n > done:
                    users.setdefault(min(width, n - done), []).append(n)
            stream = _stream_id(domain, shard, block)
            yield block, stream, trials, sorted(users.items(), reverse=True)


def _block_row_sums(buffers: queue.SimpleQueue, seed: int, stream: int,
                    outs: list[tuple[int, np.ndarray]]) -> None:
    """Row sums of substream ``stream`` at several widths, from one draw.

    ``outs`` lists ``(width, out)`` pairs, widest first, with outs of one
    size: ``out`` receives the sums of the first ``out.size`` rows at
    ``width``.  The call draws those rows at the widest width from the
    start of the substream, in chunks of whole rows at that width, into a
    buffer of at least ``max(_CHUNK_NORMALS, widest)`` floats, held from
    ``buffers`` for the length of the call.  A narrower row that a chunk's
    end cuts keeps a copy of its head, and the next chunk completes it, so
    every row is summed whole.
    """
    widest, count = outs[0][0], outs[0][1].size
    end = count * widest
    step = widest * max(1, _CHUNK_NORMALS // widest)
    gen = _generator(seed, stream)
    heads: dict[int, np.ndarray] = {}
    buf = buffers.get()
    try:
        for a in range(0, end, step):
            b = min(a + step, end)
            chunk = _normals(gen, b - a, out=buf[:b - a])
            for w, out in outs:
                # Rows i to j - 1 lie whole in the chunk; a head means row i - 1 was cut.
                i, j = -(-a // w), min(b // w, count)
                head = heads.pop(w, None)
                if head is not None:
                    row = np.concatenate((head, chunk[:i * w - a]))
                    row.reshape(1, w).sum(axis=1, out=out[i - 1:i])
                if i < j:
                    chunk[i * w - a:j * w - a].reshape(j - i, w).sum(axis=1, out=out[i:j])
                if j < count and j * w < b:
                    heads[w] = chunk[j * w - a:].copy()
    finally:
        buffers.put(buf)


def _sums(seed: int, domain: int, n_samples: int, numbers: list[int]) -> dict[int, np.ndarray]:
    """Each trial's sum of its N normals from ``domain``, for each distinct N in ``numbers``."""
    threads = _thread_count()
    # One draw buffer per thread, allocated here in one size and freed on
    # return, before the estimates need memory.  Beyond it a worker copies
    # at most one cut row per narrower width at each chunk edge (at most 100
    # floats each on the suite's call), so the peak memory does not depend
    # on how the workers interleave.
    buffers = queue.SimpleQueue()
    for _ in range(threads):
        buffers.put(np.empty(max(_CHUNK_NORMALS, *numbers)))
    sums = {n: np.empty(n_samples) for n in numbers}

    def tasks():
        for block, stream, trials, targets in _tasks(domain, n_samples, numbers):
            # Block 0 is each trial's first term, so its row sums are drawn
            # straight into the sums; later blocks' row sums are added.
            outs = [(w, sums[users[0]][trials] if block == 0
                     else np.empty(trials.stop - trials.start)) for w, users in targets]
            yield (block, trials, targets, outs), (stream, outs)

    draw = functools.partial(_block_row_sums, buffers, seed)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for (block, trials, targets, outs), _ in _in_order(pool, draw, tasks(), 2 * threads):
            for (_, users), (_, out) in zip(targets, outs):
                if block == 0:
                    for n in users[1:]:
                        sums[n][trials] = out
                else:
                    for n in users:
                        sums[n][trials] += out
    return sums


def sample_classical_scaling(sigma_t: float, seed: int, n_samples: int,
                             photon_numbers: Sequence[int]) -> list[WidthEstimate]:
    """Empirical widths of per-trial averages of N classical pulse pairs, per N.

    For each N in ``photon_numbers``, each of ``n_samples`` trials draws N
    independent arrival-time differences of width ``sigma_t`` (fs) and
    averages them; the spread of the trial averages is expected to shrink
    like sigma_t / sqrt(N).  Returns one estimate per entry of
    ``photon_numbers``.  Every N reads the same substreams, so each is
    drawn once, as far as the largest N needs, and each estimate has the
    bits of a call for its N alone.
    """
    _check_finite(positive=True, sigma_t_fs=sigma_t)
    if not photon_numbers:
        raise DomainError("need at least one photon number")
    for n in photon_numbers:
        SamplerConfig(seed=seed, n_samples=n_samples, n_photons=n)
    estimates = {}
    for n, values in _sums(seed, 1, n_samples, list(dict.fromkeys(photon_numbers))).items():
        with np.errstate(over="ignore", invalid="ignore"):  # _estimate names what overflows
            values *= sigma_t
            values /= n
        estimates[n] = _estimate(values)
    return [estimates[n] for n in photon_numbers]


def sample_classical(sigma_t: float, cfg: SamplerConfig) -> WidthEstimate:
    """Empirical width of per-trial averages of ``cfg.n_photons`` classical pulse pairs.

    The one-photon-number case of :func:`sample_classical_scaling`.
    """
    return sample_classical_scaling(sigma_t, cfg.seed, cfg.n_samples, (cfg.n_photons,))[0]

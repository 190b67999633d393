"""Tests for the stochastic width estimators."""

import math
import sys

import numpy as np
import pytest

from qtiming import montecarlo
from qtiming.distributions import TimingDistribution, TimingVariable
from qtiming.errors import DomainError
from qtiming.montecarlo import (
    SamplerConfig, sample_classical, sample_classical_scaling, sample_quantum,
)


def dist(mean=0.0, sigma=1.0):
    return TimingDistribution(TimingVariable.MEAN_TIME_DIFFERENCE, mean=mean, sigma=sigma)


class TestSamplerConfig:
    def test_too_few_samples_rejected(self):
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, n_samples=99)

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError):
            SamplerConfig(seed=-1, n_samples=100)

    def test_photon_cap(self):
        with pytest.raises(DomainError):
            SamplerConfig(seed=1, n_samples=100, n_photons=10_000_000)

    @pytest.mark.parametrize("fields", [
        {"seed": 1.5, "n_samples": 1000},
        {"seed": 1, "n_samples": 1000.5},
        {"seed": 1, "n_samples": 1000, "n_photons": 2.5},
    ], ids=["seed", "n_samples", "n_photons"])
    def test_non_integer_field_rejected(self, fields):
        with pytest.raises(DomainError, match="must be an integer"):
            SamplerConfig(**fields)


class TestSampleQuantum:
    def test_same_seed_is_bit_identical(self):
        cfg = SamplerConfig(seed=7, n_samples=50_000)
        assert sample_quantum(dist(), cfg) == sample_quantum(dist(), cfg)

    def test_different_seeds_differ(self):
        a = sample_quantum(dist(), SamplerConfig(seed=7, n_samples=10_000))
        b = sample_quantum(dist(), SamplerConfig(seed=8, n_samples=10_000))
        assert a.sigma_hat != b.sigma_hat

    def test_width_within_three_standard_errors(self):
        estimate = sample_quantum(dist(sigma=1.0), SamplerConfig(seed=42, n_samples=100_000))
        assert abs(estimate.sigma_hat - 1.0) < 3.0 * estimate.standard_error
        assert estimate.standard_error == pytest.approx(
            estimate.sigma_hat / math.sqrt(2.0 * (100_000 - 1))
        )

    def test_mean_within_three_standard_errors(self):
        estimate = sample_quantum(dist(mean=12.5, sigma=2.0), SamplerConfig(seed=3, n_samples=100_000))
        assert abs(estimate.mean_hat - 12.5) < 3.0 * estimate.mean_standard_error

    def test_estimator_consistency_across_seeds(self):
        # Fixed list of seeds: deterministic outcome, >= 99% within 3 SE.
        hits = 0
        for seed in range(100):
            estimate = sample_quantum(dist(sigma=1.0), SamplerConfig(seed=seed, n_samples=2000))
            if abs(estimate.sigma_hat - 1.0) < 3.0 * estimate.standard_error:
                hits += 1
        assert hits >= 99

    @pytest.mark.parametrize("n_photons", [2, 1000])
    def test_photon_number_other_than_one_rejected(self, n_photons):
        # dist already describes the N-photon observable; a trial is one normal.
        cfg = SamplerConfig(seed=1, n_samples=1000, n_photons=n_photons)
        with pytest.raises(DomainError, match=f"n_photons must be 1, got {n_photons}"):
            sample_quantum(dist(), cfg)


class TestSampleClassical:
    def test_single_photon_recovers_pulse_width(self):
        estimate = sample_classical(1.0, SamplerConfig(seed=11, n_samples=100_000, n_photons=1))
        assert abs(estimate.sigma_hat - 1.0) < 3.0 * estimate.standard_error

    def test_hundred_photons_narrow_tenfold(self):
        estimate = sample_classical(1.0, SamplerConfig(seed=11, n_samples=100_000, n_photons=100))
        assert abs(estimate.sigma_hat - 0.1) < 3.0 * estimate.standard_error

    def test_same_seed_is_bit_identical(self):
        cfg = SamplerConfig(seed=5, n_samples=10_000, n_photons=17)
        assert sample_classical(2.0, cfg) == sample_classical(2.0, cfg)

    def test_scaling_law_slope(self):
        widths = []
        numbers = (1, 10, 100, 1000)
        for n in numbers:
            cfg = SamplerConfig(seed=19, n_samples=10_000, n_photons=n)
            widths.append(sample_classical(1.0, cfg).sigma_hat)
        slope = np.polyfit(np.log10(numbers), np.log10(widths), 1)[0]
        assert abs(slope + 0.5) < 0.02

    def test_nonpositive_width_rejected(self):
        with pytest.raises(DomainError):
            sample_classical(0.0, SamplerConfig(seed=1, n_samples=100))


def test_substream_keys_give_distinct_streams():
    # SeedSequence turns each integer into 32-bit words, so keys whose words
    # could line up (swapped, split across a word edge, or one domain bit
    # apart) must still start distinct streams.
    keys = [
        (0, 0), (0, 1), (1, 0), (1, 1), (0, 2**32), (2**32, 0), (1, 2**32), (2**32, 1),
        (7, montecarlo._stream_id(0, 3, 1)), (7, montecarlo._stream_id(1, 3, 1)),
        (montecarlo._stream_id(1, 3, 1), 7),
        (2**64 - 1, 2**63 + 5), (2**63 + 5, 2**64 - 1), (2**64 - 1, 2**64 - 1),
    ]
    heads = {tuple(montecarlo._generator(seed, stream).bit_generator.random_raw(4).tolist())
             for seed, stream in keys}
    assert len(heads) == len(keys)


@pytest.mark.parametrize("seed,stream", [(0, 0), (42, 7), (2**64 - 1, 2**63 + 5)])
def test_uneven_chunks_match_one_draw_bit_for_bit(seed, stream):
    # The ziggurat rejects and redraws, so a chunk's end falls at no fixed
    # counter; the stream must still be the same however it is cut.
    whole = montecarlo._normals(montecarlo._generator(seed, stream), 1 << 20)
    gen = montecarlo._generator(seed, stream)
    chunks = (1, 1000, 7919, 1 << 17, 300_000, 50_000)
    parts = [montecarlo._normals(gen, count) for count in (*chunks, (1 << 20) - sum(chunks))]
    assert np.concatenate(parts).view(np.uint64).tolist() == whole.view(np.uint64).tolist()


def test_normals_into_buffer_match_fresh_draws():
    fresh = montecarlo._generator(7, 3)
    buffered = montecarlo._generator(7, 3)
    buf = np.full(1000, np.nan)
    for count in (1000, 17, 600):
        expected = montecarlo._normals(fresh, count)
        got = montecarlo._normals(buffered, count, out=buf[:count])
        assert np.shares_memory(got, buf)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestClassicalStream:
    """The classical stream is pinned bit for bit, whatever runs the blocks."""

    # Two shards (the second partial) and three blocks in the first shard.
    CFG = SamplerConfig(seed=42, n_samples=40_000, n_photons=300)
    # Recorded from the single-threaded, unchunked sampler.
    RECORDED = {
        "sigma_hat_fs": 0.05776945060196183,
        "standard_error_fs": 0.0002042484044513552,
        "n_samples": 40_000,
        "mean_hat_fs": -0.00037786188937024055,
        "mean_standard_error_fs": 0.00028884725300980913,
    }

    def test_estimate_matches_recorded_stream(self):
        assert sample_classical(1.0, self.CFG).to_dict() == self.RECORDED

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_thread_count_leaves_bits_unchanged(self, monkeypatch, threads):
        monkeypatch.setattr(montecarlo, "_thread_count", lambda: threads)
        assert sample_classical(1.0, self.CFG).to_dict() == self.RECORDED

    def test_uneven_draw_chunks_leave_bits_unchanged(self, monkeypatch):
        # 50,000 variates split neither shard's rows evenly.
        monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", 50_000)
        assert sample_classical(1.0, self.CFG).to_dict() == self.RECORDED

    def test_single_row_draw_chunks_leave_bits_unchanged(self, monkeypatch):
        cfg = SamplerConfig(seed=42, n_samples=100, n_photons=300)
        whole = sample_classical(1.0, cfg)
        monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", 1)
        assert sample_classical(1.0, cfg) == whole

    def test_single_variate_draw_chunks_leave_recorded_bits_unchanged(self, monkeypatch):
        # One row per chunk across both shards and all three blocks.
        monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", 1)
        assert sample_classical(1.0, self.CFG).to_dict() == self.RECORDED

    def test_shared_pass_leaves_recorded_bits_unchanged(self):
        # Block 0 of the full shard is read at widths 1, 10, 100 and 122.
        numbers = (1, 10, 100, 300)
        estimates = sample_classical_scaling(1.0, 42, self.CFG.n_samples, numbers)
        assert estimates[-1].to_dict() == self.RECORDED
        for n, estimate in zip(numbers[:-1], estimates):
            cfg = SamplerConfig(seed=42, n_samples=self.CFG.n_samples, n_photons=n)
            assert estimate == sample_classical(1.0, cfg)


class TestQuantumStream:
    """The quantum stream is pinned bit for bit, whatever runs the shards."""

    # Two shards, the second partial.
    DIST = dist(mean=25.0, sigma=3.5)
    CFG = SamplerConfig(seed=42, n_samples=40_000)
    RECORDED = {
        "sigma_hat_fs": 3.5123542532722385,
        "standard_error_fs": 0.012418202780596004,
        "n_samples": 40_000,
        "mean_hat_fs": 25.02328572952592,
        "mean_standard_error_fs": 0.017561771266361194,
    }

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_estimate_matches_recorded_stream(self, monkeypatch, threads):
        monkeypatch.setattr(montecarlo, "_thread_count", lambda: threads)
        assert sample_quantum(self.DIST, self.CFG).to_dict() == self.RECORDED

    @pytest.mark.parametrize("chunk", [300, 7919])
    def test_draw_chunks_leave_recorded_bits_unchanged(self, monkeypatch, chunk):
        # Neither size divides a shard's 32,768 or 7,232 trials.
        monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", chunk)
        assert sample_quantum(self.DIST, self.CFG).to_dict() == self.RECORDED


def reference_classical(seed, n_samples, n_photons):
    """The classical estimate from one whole substream at a time, serially."""
    sums = np.zeros(n_samples)
    for shard, start in enumerate(range(0, n_samples, montecarlo.SHARD_TRIALS)):
        count = min(montecarlo.SHARD_TRIALS, n_samples - start)
        width = max(1, montecarlo._DRAW_BLOCK // count)
        for block, done in enumerate(range(0, n_photons, width)):
            cols = min(width, n_photons - done)
            gen = montecarlo._generator(seed, montecarlo._stream_id(1, shard, block))
            normals = montecarlo._normals(gen, count * cols)
            sums[start:start + count] += normals.reshape(count, cols).sum(axis=1)
    return montecarlo._estimate(sums / n_photons)


@pytest.fixture
def small_layout(monkeypatch):
    # The suite's layout in miniature: 300 trials make two full shards whose
    # blocks are 122 photons wide and a last shard of 44 trials.
    monkeypatch.setattr(montecarlo, "SHARD_TRIALS", 128)
    monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", 128 * 122)
    return 300


SCALING_SETS = {
    # Block 0 is read at widths 1, 10, 100 and 122 (354 in the last shard).
    "suite": (1, 10, 100, 1000),
    # Widths that divide neither each other nor 4; in the full shards, width
    # 122 serves two photon numbers.
    "coprime": (3, 7, 122, 1000),
    # Block 0 is read at widths 122, 100, 99 and 97 (354 in the last shard),
    # so a chunk's end cuts rows of three widths at three places.  The id
    # keeps the test names.
    "several-passes": (97, 99, 100, 1000),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
# Ids kept from the (chunk, task size) pairs these cases once took, so that
# the cases keep their names.
@pytest.mark.parametrize("chunk", [None, 7_000, 1], ids=["None-None", "7000-5000", "1-30"])
@pytest.mark.parametrize("numbers", SCALING_SETS.values(), ids=SCALING_SETS)
def test_scaling_matches_serial_reference(monkeypatch, small_layout, numbers, threads, chunk):
    monkeypatch.setattr(montecarlo, "_thread_count", lambda: threads)
    if chunk is not None:
        monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", chunk)
    expected = [reference_classical(5, small_layout, n) for n in numbers]
    assert sample_classical_scaling(1.0, 5, small_layout, numbers) == expected


def test_scaling_under_frequent_thread_switches(monkeypatch, small_layout):
    # Workers write block 0's row sums straight into the shared sums while
    # the caller adds later blocks: a write out of block order changes bits.
    monkeypatch.setattr(montecarlo, "_thread_count", lambda: 4)
    monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", 500)
    numbers = SCALING_SETS["coprime"]
    expected = [reference_classical(8, small_layout, n) for n in numbers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_classical_scaling(1.0, 8, small_layout, numbers)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


@pytest.mark.parametrize("numbers", SCALING_SETS.values(), ids=SCALING_SETS)
def test_each_substream_is_drawn_once(monkeypatch, small_layout, numbers):
    drawn = []
    normals = montecarlo._normals

    def counting(gen, count, out=None):
        drawn.append(count)
        return normals(gen, count, out)

    monkeypatch.setattr(montecarlo, "_normals", counting)
    sample_classical_scaling(1.0, 5, small_layout, numbers)
    assert sum(drawn) == small_layout * max(numbers)


def test_one_task_per_substream(monkeypatch, small_layout):
    calls = []
    block_row_sums = montecarlo._block_row_sums

    def recording(buffers, seed, stream, outs):
        calls.append((stream, tuple(w for w, _ in outs)))
        return block_row_sums(buffers, seed, stream, outs)

    monkeypatch.setattr(montecarlo, "_block_row_sums", recording)
    sample_classical_scaling(1.0, 5, small_layout, SCALING_SETS["several-passes"])
    # 1000 photons take 9 blocks of width 122 in each full shard and 3 of
    # width 354 in the last; each block, block 0 included, is one task.
    streams = [montecarlo._stream_id(1, shard, block)
               for shard, n_blocks in ((0, 9), (1, 9), (2, 3)) for block in range(n_blocks)]
    assert sorted(stream for stream, _ in calls) == sorted(streams)
    widths = dict(calls)
    assert widths[montecarlo._stream_id(1, 0, 0)] == (122, 100, 99, 97)
    assert widths[montecarlo._stream_id(1, 2, 0)] == (354, 100, 99, 97)


def test_scaling_returns_one_estimate_per_entry():
    estimates = sample_classical_scaling(2.0, 4, 500, (30, 3, 30))
    assert estimates[0] == estimates[2]
    assert estimates[1] == sample_classical(2.0, SamplerConfig(seed=4, n_samples=500, n_photons=3))


@pytest.mark.parametrize("numbers", [(), (10, 0), (10, 2_000_000)])
def test_scaling_rejects_bad_photon_numbers(numbers):
    with pytest.raises(DomainError):
        sample_classical_scaling(1.0, 1, 100, numbers)


@pytest.mark.parametrize("sigma_t", [math.inf, -math.inf, math.nan])
def test_scaling_rejects_non_finite_width(sigma_t):
    with pytest.raises(DomainError):
        sample_classical_scaling(sigma_t, 1, 1000, (1,))


def test_quantum_exceeds_classical_beyond_transition():
    # 4 m of silica in path 1, far above the transition photon number: the
    # entangled width saturates while classical averaging keeps narrowing.
    from qtiming.distributions import (
        StateKind, StateSpec, classical_width, quantum_distribution,
    )
    from qtiming.media import MediumSegment, PathPair
    from qtiming.spectral import GaussianSpectrum

    spectrum = GaussianSpectrum.from_si(3.7e11)
    n = 10_000
    paths = PathPair(
        [MediumSegment("silica", alpha=0.0, beta=250.0, length=400.0)],
        [MediumSegment("none", alpha=0.0, beta=0.0, length=0.0)],
    )
    state = StateSpec(StateKind.ANTI_CORRELATED_FOCK, n)
    quantum = sample_quantum(
        quantum_distribution(state, spectrum, paths),
        SamplerConfig(seed=23, n_samples=20_000),
    )
    sigma_t = classical_width(spectrum.sigma_phi, 1e5, 0.0)
    classical = sample_classical(sigma_t, SamplerConfig(seed=23, n_samples=20_000, n_photons=n))
    assert quantum.sigma_hat > classical.sigma_hat

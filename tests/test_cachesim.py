"""Unit tests for the cache simulator and SpMV trace generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim import (
    L1_A64FX,
    L1_SKYLAKE,
    CacheConfig,
    SetAssociativeCache,
    doubles_per_line,
    line_ids,
    simulate_misses,
    x_access_lines,
)
from repro.cachesim.cache import NO_LINE
from repro.dist import RowPartition
from repro.sparse import CSRMatrix


class StampArrayCache:
    """Reference LRU: the tag/stamp-array simulator the library shipped until
    the per-set recency lists replaced it, kept as the oracle (one ``argmin``
    over last-use stamps per miss; empty ways carry stamp 0 and fill first).
    """

    def __init__(self, config: CacheConfig, *, listener=None):
        self.config = config
        ns, assoc = config.num_sets, config.associativity
        self._tags = np.full((ns, assoc), -1, dtype=np.int64)
        self._stamps = np.zeros((ns, assoc), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.listener = listener

    def access_attributed(self, line_id: int) -> tuple[bool, int]:
        ns = self.config.num_sets
        s = line_id % ns
        tag = line_id // ns
        self._clock += 1
        row = self._tags[s]
        hit_ways = np.flatnonzero(row == tag)
        if hit_ways.size:
            self._stamps[s, hit_ways[0]] = self._clock
            self.hits += 1
            if self.listener is not None:
                self.listener(line_id, True, NO_LINE)
            return True, NO_LINE
        victim = int(np.argmin(self._stamps[s]))
        old_tag = int(row[victim])
        evicted = old_tag * ns + s if old_tag >= 0 else NO_LINE
        row[victim] = tag
        self._stamps[s, victim] = self._clock
        self.misses += 1
        if self.listener is not None:
            self.listener(line_id, False, evicted)
        return False, evicted

    def access_stream(self, line_ids: np.ndarray) -> int:
        before = self.misses
        for lid in np.asarray(line_ids, dtype=np.int64).tolist():
            self.access_attributed(lid)
        return self.misses - before

    def resident_lines(self) -> np.ndarray:
        ns = self.config.num_sets
        sets, ways = np.nonzero(self._tags >= 0)
        return np.sort(self._tags[sets, ways] * ns + sets)


class TestLineGeometry:
    def test_doubles_per_line(self):
        assert doubles_per_line(64) == 8
        assert doubles_per_line(256) == 32
        assert doubles_per_line(8) == 1

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            doubles_per_line(0)
        with pytest.raises(ValueError):
            doubles_per_line(12)

    def test_line_ids_vectorised(self):
        cols = np.array([0, 7, 8, 15, 16])
        assert line_ids(cols, 64).tolist() == [0, 0, 1, 1, 2]


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig(32 * 1024, 64, 8)
        assert cfg.num_sets == 64

    def test_scaled(self):
        cfg = CacheConfig(32 * 1024, 64, 8).scaled(4)
        assert cfg.size_bytes == 128 * 1024
        assert cfg.line_bytes == 64

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(0, 64, 8)
        with pytest.raises(ValueError):
            CacheConfig(100, 64, 8)  # not a multiple


class TestLRUCache:
    def cfg(self, sets=2, assoc=2, line=64):
        return CacheConfig(sets * assoc * line, line, assoc)

    def test_cold_miss_then_hit(self):
        cache = SetAssociativeCache(self.cfg())
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.misses == 1 and cache.hits == 1

    def test_lru_eviction(self):
        # 2-way set: lines 0, 2, 4 map to set 0 (2 sets)
        cache = SetAssociativeCache(self.cfg(sets=2, assoc=2))
        cache.access(0)
        cache.access(2)
        cache.access(0)  # touch 0: now 2 is LRU
        cache.access(4)  # evicts 2
        assert cache.access(0)  # still resident
        assert not cache.access(2)  # was evicted

    def test_distinct_sets_do_not_conflict(self):
        cache = SetAssociativeCache(self.cfg(sets=2, assoc=1))
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        assert cache.access(0)
        assert cache.access(1)

    def test_stream_counts_repeats_as_hits(self):
        cache = SetAssociativeCache(self.cfg())
        misses = cache.access_stream(np.array([0, 0, 0, 1, 1, 0]))
        # unique transitions: 0 (miss), 1 (miss), 0 (hit, still resident)
        assert misses == 2
        assert cache.hits == 4

    def test_stream_empty(self):
        cache = SetAssociativeCache(self.cfg())
        assert cache.access_stream(np.empty(0, dtype=np.int64)) == 0

    def test_reset_counters(self):
        cache = SetAssociativeCache(self.cfg())
        cache.access(0)
        cache.reset_counters()
        assert cache.misses == 0 and cache.hits == 0

    def test_simulate_misses_bounds(self, rng):
        stream = rng.integers(0, 100, size=500)
        misses = simulate_misses(stream, self.cfg(sets=4, assoc=2))
        distinct = np.unique(stream).size
        assert distinct <= misses <= stream.size


@st.composite
def geometries_and_streams(draw):
    """Random cache geometry (1-way and 1-set included) and a line-id stream
    drawn from few enough lines to conflict, possibly shorter than a set."""
    sets = draw(st.sampled_from([1, 2, 3, 4, 8]))
    assoc = draw(st.sampled_from([1, 2, 3, 4, 8]))
    config = CacheConfig(sets * assoc * 64, 64, assoc)
    stream = draw(st.lists(st.integers(0, 4 * sets * assoc), max_size=120))
    return config, stream


class TestAgainstStampArrayReference:
    """The list-based cache replays any stream exactly like the stamp-array
    reference: same hit/miss/evicted sequence, counters and residency."""

    SETTINGS = settings(max_examples=150, deadline=None)

    @SETTINGS
    @given(geometries_and_streams())
    def test_access_attributed_sequence(self, case):
        config, stream = case
        cache, ref = SetAssociativeCache(config), StampArrayCache(config)
        for lid in stream:
            assert cache.access_attributed(lid) == ref.access_attributed(lid)
            assert cache.is_resident(lid)
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert np.array_equal(cache.resident_lines(), ref.resident_lines())
        assert cache.resident_lines().dtype == np.int64

    @SETTINGS
    @given(geometries_and_streams(), st.booleans())
    def test_access_stream(self, case, with_listener):
        config, stream = case
        seen, ref_seen = [], []
        cache = SetAssociativeCache(
            config, listener=(lambda *event: seen.append(event)) if with_listener else None
        )
        ref = StampArrayCache(config, listener=lambda *event: ref_seen.append(event))
        line_ids = np.array(stream, dtype=np.int64)
        assert cache.access_stream(line_ids) == ref.access_stream(line_ids)
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert np.array_equal(cache.resident_lines(), ref.resident_lines())
        if with_listener:
            assert seen == ref_seen
        # a second stream continues from the state the first one left
        assert cache.access_stream(line_ids[::-1]) == ref.access_stream(line_ids[::-1])
        assert np.array_equal(cache.resident_lines(), ref.resident_lines())


def cold_x_misses(mat: CSRMatrix, config: CacheConfig) -> int:
    """L1 misses on ``x`` for one SpMV with ``mat`` on a cold cache."""
    return simulate_misses(x_access_lines(mat, config.line_bytes), config)


class TestSpMVTrace:
    def test_access_lines_follow_indices(self):
        mat = CSRMatrix.from_coo((2, 20), [0, 0, 1], [0, 9, 15], [1.0, 1.0, 1.0])
        assert x_access_lines(mat, 64).tolist() == [0, 1, 1]

    def test_sequential_access_misses_once_per_line(self):
        # a dense row touching 64 consecutive x entries: 8 lines at 64 B
        mat = CSRMatrix.from_coo(
            (1, 64), np.zeros(64, dtype=int), np.arange(64), np.ones(64)
        )
        assert cold_x_misses(mat, L1_SKYLAKE) == 8

    def test_larger_lines_fewer_misses(self):
        rng = np.random.default_rng(0)
        n = 4096
        cols = np.sort(rng.choice(n, size=600, replace=False))
        mat = CSRMatrix.from_coo((1, n), np.zeros(600, dtype=int), cols, np.ones(600))
        assert cold_x_misses(mat, L1_A64FX) <= cold_x_misses(mat, L1_SKYLAKE)

    @pytest.mark.parametrize(
        "config", [L1_SKYLAKE, L1_A64FX], ids=["64B", "256B"]
    )
    def test_extension_in_touched_lines_adds_no_misses(self, config):
        """The paper's core cache claim at kernel level (Figures 3a/5a):
        adding entries whose x operands share already-touched lines leaves
        misses unchanged — at the 64 B Skylake/Zen 2 geometry and the 256 B
        A64FX geometry alike."""
        rng = np.random.default_rng(1)
        n = 4096
        dpl = config.line_bytes // 8
        base_cols = np.sort(
            rng.choice(np.arange(0, n, dpl), 100, replace=False)
        )
        base = CSRMatrix.from_coo(
            (1, n), np.zeros(100, dtype=int), base_cols, np.ones(100)
        )
        # extend every entry with its full line of doubles
        ext_cols = np.unique((base_cols // dpl)[:, None] * dpl + np.arange(dpl))
        ext = CSRMatrix.from_coo(
            (1, n), np.zeros(ext_cols.size, dtype=int), ext_cols, np.ones(ext_cols.size)
        )
        assert cold_x_misses(ext, config) == cold_x_misses(base, config)
        assert ext.nnz > base.nnz

    @pytest.mark.parametrize(
        "config", [L1_SKYLAKE, L1_A64FX], ids=["64B", "256B"]
    )
    def test_precond_misses_per_rank(self, poisson16, config):
        from repro.cachesim import precond_x_misses_per_rank
        from repro.core import build_fsai

        part = RowPartition.from_matrix(poisson16, 2, seed=0)
        pre = build_fsai(poisson16, part)
        misses = precond_x_misses_per_rank(pre.g, pre.gt, config)
        assert misses.shape == (2,)
        assert np.all(misses > 0)

"""Unit tests for static/dynamic filtering and load-balance metrics (Alg. 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FilterSpec,
    compute_dynamic_filters,
    compute_g_values,
    entry_ratios,
    fsai_pattern,
    imbalance_index,
    relative_load,
)
from repro.errors import ShapeError
from repro.sparse import CSRMatrix, SparsityPattern

from conftest import random_sparse
from extension_oracle import dynamic_filter_for_rank, extension_entry_mask, static_filter_counts


class TestEntryRatios:
    def test_diagonal_entries_have_ratio_one(self, small_spd):
        g = compute_g_values(small_spd, fsai_pattern(small_spd))
        ratios = entry_ratios(g)
        rows = np.repeat(np.arange(g.nrows), g.row_nnz())
        assert np.allclose(ratios[rows == g.indices], 1.0)

    def test_scale_invariance(self, small_spd):
        g = compute_g_values(small_spd, fsai_pattern(small_spd))
        scaled = CSRMatrix(g.shape, g.indptr, g.indices, g.data * 7.0, check=False)
        assert np.allclose(entry_ratios(g), entry_ratios(scaled))

    def test_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            entry_ratios(random_sparse(rng, 3, 5))


class TestExtensionMask:
    def test_identifies_new_entries(self):
        base = SparsityPattern.from_rows((3, 3), [[0], [1], [2]])
        g = CSRMatrix.from_coo(
            (3, 3), [0, 1, 1, 2, 2], [0, 0, 1, 1, 2], [1.0, 0.5, 1.0, 0.1, 1.0]
        )
        mask = extension_entry_mask(g, base)
        assert mask.tolist() == [False, True, False, True, False]

    def test_all_base_gives_empty_mask(self, small_spd):
        pat = fsai_pattern(small_spd)
        g = compute_g_values(small_spd, pat)
        assert not extension_entry_mask(g, pat).any()

    def test_shape_mismatch(self, rng):
        g = random_sparse(rng, 4, 4)
        with pytest.raises(ShapeError):
            extension_entry_mask(g, SparsityPattern.identity(5))


class TestFilterSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(value=-0.1)
        with pytest.raises(ValueError):
            FilterSpec(band=(1.1, 1.2))
        with pytest.raises(ValueError):
            FilterSpec(band=(0.9, 0.99))

    def test_defaults_match_paper(self):
        spec = FilterSpec()
        assert spec.band == (0.95, 1.05)


class TestDynamicFilter:
    def test_balanced_ranks_keep_initial_filter(self):
        ratios = [np.full(100, 0.5) for _ in range(4)]
        base = np.full(4, 1000)
        filters = compute_dynamic_filters(base, ratios, FilterSpec(0.01, dynamic=True))
        assert np.allclose(filters, 0.01)

    def test_overloaded_rank_gets_larger_filter(self):
        rng = np.random.default_rng(0)
        # rank 0 has 5x the extension entries of the others
        ratios = [rng.uniform(0.02, 1.0, 5000)] + [
            rng.uniform(0.02, 1.0, 1000) for _ in range(3)
        ]
        base = np.full(4, 1000)
        filters = compute_dynamic_filters(base, ratios, FilterSpec(0.01, dynamic=True))
        assert filters[0] > 0.01
        assert np.allclose(filters[1:], 0.01)

    def test_dynamic_filter_restores_balance(self):
        rng = np.random.default_rng(1)
        ratios = [rng.uniform(0.02, 1.0, 8000)] + [
            rng.uniform(0.02, 1.0, 1000) for _ in range(3)
        ]
        base = np.full(4, 1000)
        spec = FilterSpec(0.01, dynamic=True)
        filters = compute_dynamic_filters(base, ratios, spec)
        counts = np.array(
            [
                1000 + int(np.count_nonzero(r > f))
                for r, f in zip(ratios, filters)
            ]
        )
        # load of the adjusted rank is inside (or below) the band w.r.t. the
        # average computed at the initial filter
        avg = static_filter_counts(base, ratios, 0.01).mean()
        assert counts[0] / avg <= 1.05 + 1e-9

    def test_static_spec_returns_uniform(self):
        ratios = [np.full(10, 0.5) for _ in range(3)]
        filters = compute_dynamic_filters(
            np.full(3, 10), ratios, FilterSpec(0.05, dynamic=False)
        )
        assert np.allclose(filters, 0.05)

    def test_single_rank_never_adjusts(self):
        filters = compute_dynamic_filters(
            np.array([10]), [np.full(1000, 0.9)], FilterSpec(0.01, dynamic=True)
        )
        assert np.allclose(filters, 0.01)

    def test_filter_never_decreases(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            ratios = rng.uniform(0, 1, rng.integers(10, 2000))
            f = dynamic_filter_for_rank(100, ratios, 0.05, average_count=150.0)
            assert f >= 0.05

    def test_imbalanced_base_pattern_terminates(self):
        # base pattern itself is imbalanced: filtering cannot fix it, but the
        # bisection must still terminate
        ratios = np.full(10, 0.5)
        f = dynamic_filter_for_rank(10_000, ratios, 0.01, average_count=100.0)
        assert np.isfinite(f)

    def test_zero_average_is_noop(self):
        assert dynamic_filter_for_rank(5, np.array([0.5]), 0.01, 0.0) == 0.01


class TestLoadMetrics:
    def test_imbalance_index_balanced(self):
        assert imbalance_index(np.array([10, 10, 10])) == 1.0

    def test_imbalance_index_definition(self):
        # mean/max as in §5.3.3
        arr = np.array([50, 100, 150])
        assert imbalance_index(arr) == pytest.approx(100.0 / 150.0)

    def test_imbalance_index_edge_cases(self):
        assert imbalance_index(np.array([])) == 1.0
        assert imbalance_index(np.array([0, 0])) == 1.0

    def test_relative_load(self):
        loads = relative_load(np.array([5, 10, 15]))
        assert np.allclose(loads, [0.5, 1.0, 1.5])
        assert np.allclose(relative_load(np.array([0, 0])), 1.0)

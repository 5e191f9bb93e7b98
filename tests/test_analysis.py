"""Unit tests for metrics, table formatting and histogram rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    format_histogram_pair,
    format_kv,
    format_table,
    pct_decrease,
    pct_increase,
    summarize_improvements,
)
from repro.analysis.histogram import histogram_series


class TestMetrics:
    def test_pct_decrease(self):
        assert pct_decrease(100.0, 80.0) == pytest.approx(20.0)
        assert pct_decrease(100.0, 120.0) == pytest.approx(-20.0)
        assert pct_decrease(0.0, 5.0) == 0.0

    def test_pct_increase(self):
        assert pct_increase(100.0, 119.0) == pytest.approx(19.0)
        assert pct_increase(0.0, 5.0) == 0.0

    def test_summary_matches_paper_semantics(self):
        base_iters = np.array([100, 200, 400])
        base_times = np.array([1.0, 2.0, 4.0])
        new_iters = np.array([80, 150, 440])
        new_times = np.array([0.8, 1.6, 4.4])
        s = summarize_improvements(base_iters, base_times, new_iters, new_times)
        assert s.avg_iterations == pytest.approx((20 + 25 - 10) / 3)
        assert s.avg_time == pytest.approx((20 + 20 - 10) / 3)
        assert s.highest_improvement == pytest.approx(20.0)
        assert s.highest_degradation == pytest.approx(-10.0)
        assert len(s.row()) == 4


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(
            ["Matrix", "Iter"], [["thermal2", 123], ["x", 4]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "Matrix" in lines[1]
        assert lines[2].startswith("-")
        assert lines[3].startswith("thermal2")
        assert lines[3].rstrip().endswith("123")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_format_table_empty(self):
        out = format_table(["a"], [])
        assert "a" in out

    def test_format_kv(self):
        out = format_kv({"avg": 1.5, "worst": -2}, title="Summary")
        assert out.splitlines()[0] == "Summary"
        assert "avg" in out and "worst" in out


class TestHistograms:
    def test_histogram_series(self):
        edges, counts = histogram_series(np.array([0.0, 0.5, 1.0]), bins=2)
        assert counts.sum() == 3
        assert edges.size == 3

    def test_format_histogram_pair_shared_bins(self):
        rng = np.random.default_rng(0)
        a = rng.normal(1.0, 0.1, 50)
        b = rng.normal(2.0, 0.1, 50)
        out = format_histogram_pair("fsai", a, "comm", b, bins=5, title="H")
        lines = out.splitlines()
        assert lines[0] == "H"
        assert len(lines) == 2 + 5 + 1  # title, header, bins, means
        assert "mean" in lines[-1]

    def test_format_histogram_degenerate_values(self):
        a = np.full(5, 3.0)
        out = format_histogram_pair("x", a, "y", a, bins=3)
        assert "mean" in out

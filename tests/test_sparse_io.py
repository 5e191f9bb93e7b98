"""Unit tests for MatrixMarket I/O."""

from __future__ import annotations

import re
import threading

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import read_matrix_market, write_matrix_market

from conftest import random_sparse


class TestRoundtrip:
    def test_general_roundtrip(self, rng, tmp_path):
        mat = random_sparse(rng, 8, 6)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, mat)
        assert read_matrix_market(path).allclose(mat)

    def test_symmetric_roundtrip(self, small_spd, tmp_path):
        path = tmp_path / "s.mtx"
        write_matrix_market(path, small_spd, symmetric=True)
        back = read_matrix_market(path)
        assert back.allclose(small_spd)

    def test_gzip_roundtrip(self, rng, tmp_path):
        mat = random_sparse(rng, 5, 5)
        path = tmp_path / "m.mtx.gz"
        write_matrix_market(path, mat)
        assert read_matrix_market(path).allclose(mat)


class TestParsing:
    def test_pattern_field(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% comment line\n"
            "2 2 2\n1 1\n2 2\n"
        )
        mat = read_matrix_market(path)
        assert np.allclose(mat.to_dense(), np.eye(2))

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 2.0\n2 1 3.0\n"
        )
        mat = read_matrix_market(path)
        assert np.allclose(mat.to_dense(), [[2.0, 3.0], [3.0, 0.0]])

    def test_missing_banner(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("2 2 0\n")
        with pytest.raises(SparseFormatError):
            read_matrix_market(path)

    def test_unsupported_format(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(SparseFormatError):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
        with pytest.raises(SparseFormatError):
            read_matrix_market(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(SparseFormatError):
            read_matrix_market(path)


_REAL = "%%MatrixMarket matrix coordinate real general\n"


def read_or_report_a_hang(path, seconds: float = 10.0):
    """``read_matrix_market(path)`` on a daemon thread: a read that never
    returns fails the test instead of hanging the suite."""
    outcome = {}

    def read():
        try:
            outcome["matrix"] = read_matrix_market(path)
        except Exception as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    reader.join(seconds)
    assert not reader.is_alive(), f"read_matrix_market({path.name}) hangs"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["matrix"]


class TestMalformed:
    """Every malformed file fails typed, naming the file and the 1-based
    line at fault — never a hang, an ``IndexError`` / ``ValueError`` from
    the parser, or a matrix holding NaN."""

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        (_REAL, 2),  # ends after the banner
        (_REAL + "% only a comment\n\n", 4),
        (_REAL + "2 2\n", 2),
        (_REAL + "2 two 1\n", 2),
        (_REAL + "-2 2 1\n1 1 1.0\n", 2),
        (_REAL + "2 2 -1\n", 2),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n", 2),
        (_REAL + "2 2 2\n1 1 1.0\n", 4),  # one entry short
        (_REAL + "2 2 2\n1 1 1.0\n2 2\n", 4),  # too few tokens
        ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n", 3),
        (_REAL + "% c\n2 2 2\n1 1 1.0\nx 2 1.0\n", 5),
        (_REAL + "2 2 1\n1 1 one\n", 3),
        (_REAL + "2 2 1\n1.5 1 1.0\n", 3),
        (_REAL + "2 2 1\n1 1 nan\n", 3),
        (_REAL + "2 2 2\n1 1 1.0\n2 2 -inf\n", 4),
        (_REAL + "2 2 1\n3 1 1.0\n", 3),
        (_REAL + "2 2 1\n1 0 1.0\n", 3),
    ], ids=[
        "empty", "eof-after-banner", "eof-after-comments", "short-size-line",
        "non-numeric-size", "negative-rows", "negative-nnz", "non-square-symmetric",
        "eof-in-entries", "short-entry", "short-pattern-entry", "non-numeric-index",
        "non-numeric-value", "fractional-index", "nan-value", "inf-value",
        "row-out-of-range", "column-zero",
    ])
    def test_names_the_file_and_line(self, tmp_path, text, line):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(SparseFormatError,
                           match=rf"^{re.escape(str(path))}: line {line}: "):
            read_or_report_a_hang(path)

    def test_gzip_file_that_ends_after_the_banner(self, tmp_path):
        import gzip

        path = tmp_path / "bad.mtx.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(_REAL)
        with pytest.raises(SparseFormatError, match="line 2: the file ends"):
            read_or_report_a_hang(path)

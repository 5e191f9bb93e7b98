"""Shared fixtures for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.dist import DistMatrix, DistVector, HaloSchedule, RowPartition
from repro.matgen import paper_rhs, poisson2d, poisson3d
from repro.sparse import CSRMatrix


def ring_halo(offsets, ranks: int = 12, rows: int = 4) -> SimpleNamespace:
    """What a halo exchange reads of a ``DistMatrix`` (``schedule`` and
    ``partition``) for ``ranks`` contiguous ranks of ``rows`` rows each, in
    which rank ``p`` receives the first row of rank ``(p + d) % ranks`` for
    every ``d`` in ``offsets``."""
    part = RowPartition.contiguous(ranks * rows, ranks)
    ext = [np.unique([(p + d) % ranks * rows for d in offsets]) for p in range(ranks)]
    return SimpleNamespace(schedule=HaloSchedule(part, ext), partition=part)


def build_poisson2d(n: int) -> CSRMatrix:
    """5-point Poisson used across tests."""
    return poisson2d(n)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def small_spd(rng) -> CSRMatrix:
    """A dense-ish random 40×40 SPD matrix with ~35% sparsity."""
    n = 40
    base = rng.standard_normal((n, n))
    base[np.abs(base) < 0.8] = 0.0
    dense = base @ base.T + n * np.eye(n)
    return CSRMatrix.from_dense(dense, tol=1e-14)


@pytest.fixture
def poisson16() -> CSRMatrix:
    return poisson2d(16)


@pytest.fixture
def poisson3d8() -> CSRMatrix:
    return poisson3d(8)


@pytest.fixture
def dist_poisson16(poisson16):
    """(A, partition, DistMatrix, rhs DistVector) on 4 ranks."""
    part = RowPartition.from_matrix(poisson16, 4, seed=7)
    da = DistMatrix.from_global(poisson16, part)
    b = DistVector.from_global(paper_rhs(poisson16, seed=3), part)
    return poisson16, part, da, b


def random_sparse(rng, nrows, ncols, density=0.2) -> CSRMatrix:
    """Helper used by several unit tests (not a fixture so it can be
    parameterised)."""
    dense = rng.standard_normal((nrows, ncols))
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, dense, 0.0)
    return CSRMatrix.from_dense(dense, tol=0.0)

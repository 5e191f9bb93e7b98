"""Preconditioner setup cost — real wall-clock of this implementation.

The paper evaluates solve time only; setup cost is the standard objection to
richer preconditioners.  This benchmark measures actual construction time of
each method on a fixed matrix (these are genuine wall-clock numbers of this
Python implementation, unlike the modeled solve times):

* FSAI        — one batched local solve per pattern-size group,
* FSAIE-Comm  — extension + two factor computations (Alg. 2 steps 4 and 5),
* FSPAI       — per-row adaptive growth, the §6 "computationally costlier"
  comparator,
* and the ExtensionWorkspace amortisation: re-filtering at a new Filter
  value must be much cheaper than building from scratch.
"""

from __future__ import annotations

import pytest

from harness import problem
from repro.core import (
    ExtensionMode,
    ExtensionWorkspace,
    FilterSpec,
    FSPAIOptions,
    build_fsai,
    build_fsaie_comm,
    fspai_factor,
)
from repro.instrument import NULL_TRACER, tracing

CASE = "af_shell7"


@pytest.fixture(scope="module")
def prob():
    return problem(CASE)


def test_setup_fsai(benchmark, prob):
    result = benchmark(lambda: build_fsai(prob.mat, prob.part))
    assert result.nnz > 0


def test_setup_fsaie_comm(benchmark, prob):
    result = benchmark(lambda: build_fsaie_comm(prob.mat, prob.part))
    assert result.nnz > 0


def test_setup_fspai(benchmark, prob):
    result = benchmark(
        lambda: fspai_factor(prob.mat, FSPAIOptions(max_steps=3, per_step=2))
    )
    assert result.nnz > 0


def test_refilter_via_workspace(benchmark, prob):
    """Sweeping a new Filter value through a prepared workspace: cheaper than
    building from scratch because only rows the filter changed are solved."""
    ws = ExtensionWorkspace("FSAIE-Comm", prob.mat, prob.part, ExtensionMode.COMM)
    result = benchmark(lambda: ws.finalize(FilterSpec(0.05, dynamic=True)))
    assert result.nnz > 0
    with tracing(NULL_TRACER) as (_, metrics):
        ws.finalize(FilterSpec(0.05, dynamic=True))
        assert metrics.value("precond.finalize.rows_solved") < prob.mat.nrows

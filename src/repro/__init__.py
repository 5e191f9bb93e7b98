"""repro — reproduction of *Communication-aware Sparse Patterns for the
Factorized Approximate Inverse Preconditioner* (Laut, Casas, Borrell,
HPDC '22).

The package implements the paper's contribution (FSAIE-Comm: communication-
aware extension of FSAI sparse patterns, plus dynamic load-balancing
filtering) together with every substrate it depends on, from scratch:

* :mod:`repro.sparse`    — CSR matrices, pattern algebra, SpGEMM, .mtx I/O
* :mod:`repro.partition` — multilevel graph partitioner (METIS stand-in)
* :mod:`repro.mpisim`    — simulated MPI runtime with traffic tracking
* :mod:`repro.dist`      — row-distributed matrices/vectors + halo exchange
* :mod:`repro.cachesim`  — L1 cache simulator (PAPI-counter stand-in)
* :mod:`repro.core`      — FSAI / FSAIE / FSAIE-Comm + distributed PCG
* :mod:`repro.perfmodel` — machine models and the solver-time model
* :mod:`repro.matgen`    — synthetic workloads and the evaluation catalog
* :mod:`repro.analysis`  — metrics, tables and histograms for the benches
* :mod:`repro.instrument`— span tracing, metrics and trace exporters

Quickstart::

    import numpy as np
    from repro import (
        DistMatrix, DistVector, RowPartition,
        build_fsaie_comm, pcg, paper_rhs,
    )
    from repro.matgen import poisson3d

    A = poisson3d(20)
    part = RowPartition.from_matrix(A, nparts=8)
    dA = DistMatrix.from_global(A, part)
    M = build_fsaie_comm(A, part)
    result = pcg(dA, DistVector.from_global(paper_rhs(A), part), precond=M)
    print(result.iterations, result.converged)

Solvers accept the preconditioner object directly (``precond=M``); any
object with an ``.apply(r, tracker)`` method or a bare callable works.  To
record where time goes, wrap the run in :func:`repro.instrument.tracing` and
export with :func:`repro.instrument.write_chrome_trace` (or run
``python -m repro trace``).
"""

from repro.core import (
    CGResult,
    FilterSpec,
    FSAIOptions,
    Preconditioner,
    PrecondOptions,
    SetupOptions,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
    cg,
    check_comm_invariance,
    pcg,
)
from repro.dist import DistMatrix, DistVector, HaloSchedule, RowPartition
from repro.kernels import SolverWorkspace, SpMVPlan
from repro.errors import (
    CommError,
    ConvergenceError,
    NotSPDError,
    PartitionError,
    ReproError,
    ShapeError,
    SparseFormatError,
)
from repro.matgen import PAPER_RTOL, paper_rhs
from repro.sparse import CSRMatrix, SparsityPattern, read_matrix_market, write_matrix_market

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "FSAIOptions",
    "FilterSpec",
    "SetupOptions",
    "PrecondOptions",
    "Preconditioner",
    "build_fsai",
    "build_fsaie",
    "build_fsaie_comm",
    "check_comm_invariance",
    "CGResult",
    "pcg",
    "cg",
    # distributed
    "RowPartition",
    "DistMatrix",
    "DistVector",
    "HaloSchedule",
    # kernels
    "SpMVPlan",
    "SolverWorkspace",
    # sparse
    "CSRMatrix",
    "SparsityPattern",
    "read_matrix_market",
    "write_matrix_market",
    # workloads
    "paper_rhs",
    "PAPER_RTOL",
    # errors
    "ReproError",
    "SparseFormatError",
    "ShapeError",
    "PartitionError",
    "CommError",
    "ConvergenceError",
    "NotSPDError",
]

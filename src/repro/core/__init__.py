"""The paper's contribution: FSAI, FSAIE and FSAIE-Comm preconditioned CG.

Typical use::

    from repro.core import build_fsaie_comm, pcg, PrecondOptions, FilterSpec
    from repro.dist import RowPartition, DistMatrix, DistVector

    part = RowPartition.from_matrix(A, nparts=16)
    dA = DistMatrix.from_global(A, part)
    M = build_fsaie_comm(A, part, PrecondOptions(filter=FilterSpec(0.01)))
    result = pcg(dA, DistVector.from_global(b, part), precond=M)

``precond=`` takes the preconditioner object itself (anything with an
``.apply(r, tracker)`` method) or a bare callable; see
:func:`repro.core.cg.resolve_precond`.
"""

from repro.core.adaptive import FSPAIOptions, fspai_factor
from repro.core.cg import CGResult, cg, pcg, resolve_precond
from repro.core.extension import DistExtension, ExtensionMode, extend_dist_pattern
from repro.core.filtering import (
    FilterSpec,
    compute_dynamic_filters,
    entry_ratios,
    imbalance_index,
    relative_load,
)
from repro.core.fsai import (
    FSAIOptions,
    SetupOptions,
    compute_g_values,
    fsai_pattern,
)
from repro.core.solvers import pipelined_pcg
from repro.core.precond import (
    ExtensionWorkspace,
    Preconditioner,
    PrecondOptions,
    build_fsai,
    build_fsaie,
    build_fsaie_comm,
    check_comm_invariance,
)

__all__ = [
    "FSAIOptions",
    "SetupOptions",
    "fsai_pattern",
    "compute_g_values",
    "FSPAIOptions",
    "fspai_factor",
    "pipelined_pcg",
    "ExtensionMode",
    "DistExtension",
    "extend_dist_pattern",
    "FilterSpec",
    "entry_ratios",
    "compute_dynamic_filters",
    "imbalance_index",
    "relative_load",
    "PrecondOptions",
    "ExtensionWorkspace",
    "Preconditioner",
    "build_fsai",
    "build_fsaie",
    "build_fsaie_comm",
    "check_comm_invariance",
    "CGResult",
    "pcg",
    "cg",
    "resolve_precond",
]

"""Workload generation: synthetic SPD matrices and the evaluation catalog.

Every problem class of the paper's test set has a from-scratch generator
here, and :func:`table1_cases` / :func:`table2_cases` mirror the paper's two
evaluation tables (metadata + reference numbers + scaled synthetic analog).
"""

from repro.matgen.fem import elasticity2d, elasticity3d, shell_like
from repro.matgen.graphs import banded_spd, circuit_laplacian, electromagnetics_like
from repro.matgen.rhs import PAPER_RTOL, paper_rhs
from repro.matgen.stencils import (
    anisotropic2d,
    poisson2d,
    poisson3d,
    stretched_grid_2d,
    wide_stencil_3d,
)
from repro.matgen.suite import (
    MatrixCase,
    PaperRecord,
    default_rank_count,
    get_case,
    table1_cases,
    table2_cases,
)

__all__ = [
    "poisson2d",
    "poisson3d",
    "anisotropic2d",
    "wide_stencil_3d",
    "stretched_grid_2d",
    "elasticity2d",
    "elasticity3d",
    "shell_like",
    "circuit_laplacian",
    "electromagnetics_like",
    "banded_spd",
    "paper_rhs",
    "PAPER_RTOL",
    "MatrixCase",
    "PaperRecord",
    "table1_cases",
    "table2_cases",
    "get_case",
    "default_rank_count",
]

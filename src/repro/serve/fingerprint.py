"""Structure fingerprints: the keys of the set-up cache.

Set-up artifacts are expensive to build and cheap to reuse, but only if the
cache can *recognise* that two matrices share a set-up.
:func:`fingerprint_structure` is that recognition: a SHA-256 hex digest over
everything the set-up depends on structurally —

* the matrix **shape** and the CSR **indptr/indices** arrays (the sparsity
  pattern; values are deliberately excluded),
* the **partitioning** inputs (rank count, partition seed), and
* the **pattern options** (method, cache-line bytes, filter spec).

Two matrices with the same digest produce bit-identical FSAI patterns,
halo schedules, :class:`~repro.kernels.plan.SpMVPlan` layouts and
:class:`~repro.kernels.workspace.SolverWorkspace` geometries — which is what
makes the :class:`~repro.serve.cache.ArtifactCache` sound.  The factor
*values* of a cached preconditioner do depend on the matrix values; reusing
them across same-structure/different-values solves is the classic
time-stepping amortization (the preconditioner stays symmetric positive
definite, so CG still converges to the new system's solution — only the
iteration count may drift as the values drift).  Systems that must not
share an operator additionally key on :func:`values_digest`.
"""

from __future__ import annotations

import hashlib

__all__ = ["fingerprint_structure", "values_digest"]


def fingerprint_structure(
    mat,
    *,
    ranks: int,
    method: str = "comm",
    line_bytes: int = 64,
    filter_value: float = 0.01,
    dynamic: bool = True,
    seed: int = 0,
) -> str:
    """SHA-256 hex digest of a CSR matrix's structure plus the set-up options.

    The digest covers shape, ``indptr``, ``indices`` and the canonicalised
    option string — **not** ``data``: matrices that differ only in values
    get the same digest and therefore share every structure-derived
    artifact (partition, pattern, schedules, plans, workspaces).
    """
    opts = (
        ("ranks", str(int(ranks))),
        ("method", str(method)),
        ("line_bytes", str(int(line_bytes))),
        ("filter_value", f"{float(filter_value):.12g}"),
        ("dynamic", str(bool(dynamic))),
        ("seed", str(int(seed))),
    )
    h = hashlib.sha256()
    h.update(f"shape={mat.shape!r};".encode())
    h.update(mat.indptr.tobytes())
    h.update(mat.indices.tobytes())
    h.update(";".join(f"{k}={v}" for k, v in opts).encode())
    return h.hexdigest()


def values_digest(mat) -> str:
    """SHA-256 hex over the matrix's stored values (``data`` array only).

    Combined with :func:`fingerprint_structure` this identifies the matrix
    bitwise: same structure digest + same values digest means the
    distributed operator is reusable verbatim.
    """
    return hashlib.sha256(mat.data.tobytes()).hexdigest()

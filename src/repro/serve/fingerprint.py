"""Structure fingerprints: the cache keys of the solve farm.

The paper's economics — setup artifacts are expensive to build but cheap to
reuse — only pay off if the serving layer can *recognise* that two solve
requests share a setup.  A :class:`StructureFingerprint` is that
recognition: a SHA-256 digest over everything the setup artifacts depend on
structurally —

* the matrix **shape** and the CSR **indptr/indices** arrays (the sparsity
  pattern; values are deliberately excluded),
* the **partitioning** inputs (rank count, partition seed),
* the **pattern options** (method, cache-line bytes, filter spec), and
* the **runtime option** (compute dtype).

Two matrices with the same fingerprint produce bit-identical FSAI patterns,
halo schedules, :class:`~repro.kernels.plan.SpMVPlan` layouts and
:class:`~repro.kernels.workspace.SolverWorkspace` geometries — which is what
makes the :class:`~repro.serve.cache.ArtifactCache` sound.  The factor
*values* of a cached preconditioner do depend on the matrix values; reusing
them across same-structure/different-values solves is the classic
time-stepping amortization (the preconditioner stays symmetric positive
definite, so CG still converges to the new system's solution — only the
iteration count may drift as the values drift).  Requests that must not
share factor values additionally key on :func:`values_digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["StructureFingerprint", "fingerprint_structure", "values_digest"]


@dataclass(frozen=True)
class StructureFingerprint:
    """Identity of one setup-artifact family in the cache.

    ``digest`` is the SHA-256 hex over the structure and options;
    ``options`` keeps the human-readable ingredients for reports and
    eviction logs.  Hashable — usable directly as a cache key.
    """

    digest: str
    shape: tuple[int, int]
    nnz: int
    ranks: int
    options: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @property
    def key(self) -> str:
        """The cache-key string (digest prefixed with shape/ranks for logs)."""
        return f"{self.shape[0]}x{self.shape[1]}/p{self.ranks}/{self.digest}"

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "digest": self.digest,
            "shape": list(self.shape),
            "nnz": self.nnz,
            "ranks": self.ranks,
            "options": {k: v for k, v in self.options},
        }

    def __repr__(self) -> str:
        return f"StructureFingerprint({self.key[:40]}…, nnz={self.nnz})"


def _hash_arrays(h, *arrays) -> None:
    for arr in arrays:
        h.update(arr.tobytes())


def fingerprint_structure(
    mat,
    *,
    ranks: int,
    method: str = "comm",
    line_bytes: int = 64,
    filter_value: float = 0.01,
    dynamic: bool = True,
    dtype: str = "float64",
    seed: int = 0,
) -> StructureFingerprint:
    """Fingerprint a CSR matrix's structure plus the setup options.

    The digest covers shape, ``indptr``, ``indices`` and the canonicalised
    option string — **not** ``data``: requests whose matrices differ only in
    values map to the same fingerprint and therefore share every
    structure-derived artifact (pattern, schedules, plans, workspaces).
    """
    opts = (
        ("method", str(method)),
        ("line_bytes", str(int(line_bytes))),
        ("filter_value", f"{float(filter_value):.12g}"),
        ("dynamic", str(bool(dynamic))),
        ("dtype", str(dtype)),
        ("seed", str(int(seed))),
    )
    h = hashlib.sha256()
    h.update(f"shape={mat.shape!r};".encode())
    _hash_arrays(h, mat.indptr, mat.indices)
    h.update(";".join(f"{k}={v}" for k, v in opts).encode())
    return StructureFingerprint(
        digest=h.hexdigest(),
        shape=(int(mat.shape[0]), int(mat.shape[1])),
        nnz=int(mat.nnz),
        ranks=int(ranks),
        options=opts,
    )


def values_digest(mat) -> str:
    """SHA-256 hex over the matrix's stored values (``data`` array only).

    Combined with a :class:`StructureFingerprint` this identifies the matrix
    bitwise: same structure digest + same values digest means the distributed
    operator and its factor values are reusable verbatim.
    """
    h = hashlib.sha256()
    h.update(mat.data.tobytes())
    return h.hexdigest()

"""Set-up reuse across solves: the paper's amortisation, counted.

FSAIE-Comm's pattern, factors and halo schedule depend only on the matrix
structure (and §4 proves the schedule byte-identical to FSAI's), so a
stream of same-structure systems — time steps, Newton iterations,
parameter sweeps — pays the set-up once:

* :mod:`~repro.serve.fingerprint` — the structure digest (SHA-256 over
  shape + CSR ``indptr``/``indices`` + set-up options, values excluded)
  and the values digest;
* :mod:`~repro.serve.cache` — :class:`~repro.serve.cache.ArtifactCache`,
  its two tiers and :meth:`~repro.serve.cache.ArtifactCache.solve_many`,
  with the §4 audit on every system build that follows a structure hit.

Documentation lives in ``docs/SERVING.md``; ``repro serve`` and
``benchmarks/serve_bench.py`` (gated by ``scripts/check_bench.py serve``)
drive it.
"""

from repro.serve.cache import ArtifactCache, value_variants
from repro.serve.fingerprint import fingerprint_structure, values_digest

__all__ = [
    "fingerprint_structure",
    "values_digest",
    "ArtifactCache",
    "value_variants",
]

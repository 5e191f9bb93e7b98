"""Matrix reordering: RCM bandwidth reduction and symmetric permutations.

Ordering controls the column locality the cache-friendly extensions exploit;
see ``benchmarks/test_ablation_ordering.py`` for the quantified interaction.
"""

from repro.order.permute import permute_symmetric
from repro.order.rcm import bandwidth, rcm_ordering

__all__ = [
    "rcm_ordering",
    "bandwidth",
    "permute_symmetric",
]

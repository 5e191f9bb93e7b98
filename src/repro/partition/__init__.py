"""Graph partitioning substrate (the repo's METIS stand-in).

Public surface:

* :class:`Graph`, :func:`graph_from_matrix`
* :func:`partition_graph`, :func:`partition_matrix` — multilevel recursive
  bisection with FM refinement.
* :func:`strip_partition`, :func:`block_partition_2d` — geometric
  decompositions for structured grids.
"""

from repro.partition.geometric import block_partition_2d, strip_partition
from repro.partition.graph import Graph, graph_from_matrix
from repro.partition.multilevel import partition_graph, partition_matrix

__all__ = [
    "Graph",
    "graph_from_matrix",
    "partition_graph",
    "partition_matrix",
    "strip_partition",
    "block_partition_2d",
]

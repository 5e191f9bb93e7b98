"""Row-distributed dense vectors.

A :class:`DistVector` mirrors the matrix row distribution: rank ``p`` stores
the entries of the global vector at ``partition.global_ids[p]`` in that
order.  All ranks' entries live in one contiguous float64 buffer,
:attr:`DistVector.values`, in rank order; ``parts[p]`` is the view of rank
``p``'s slice of it.  Elementwise updates are therefore one NumPy operation
over the whole vector, while reductions (dot products, norms) keep one
partial per rank, summed in rank order — the distributed reduction's order.
Reductions are recorded as allreduce traffic when a tracker is supplied,
since in the real system they are the CG solver's global synchronisation
points.
"""

from __future__ import annotations

import numpy as np

from repro.dist.partition_map import RowPartition
from repro.errors import ShapeError
from repro.mpisim.tracker import CommTracker

__all__ = ["DistVector"]


class DistVector:
    """A dense vector distributed by rows across ranks, stored as one
    contiguous float64 buffer: ``values`` holds every rank's entries, rank
    after rank, and ``parts[p]`` is the view of rank ``p``'s slice.

    Write into a part in place (``parts[p][:] = ...``); rebinding a list
    entry detaches it from the buffer, and the solver workspace rejects
    such a vector (:meth:`check_views`).  ``DistVector(partition, parts)``
    copies the parts into a new buffer; :meth:`from_values` wraps one.
    """

    __slots__ = ("partition", "values", "parts", "_view_ids")

    def __init__(self, partition: RowPartition, parts: list[np.ndarray]):
        """Copy per-rank arrays into one new buffer."""
        if len(parts) != partition.nparts:
            raise ShapeError("need one part per rank")
        for p, arr in enumerate(parts):
            if arr.shape != (partition.size_of(p),):
                raise ShapeError(
                    f"rank {p}: part has shape {arr.shape}, expected "
                    f"({partition.size_of(p)},)"
                )
        self._bind(partition, np.empty(partition.nrows, dtype=np.float64))
        for view, arr in zip(self.parts, parts):
            view[:] = arr

    def _bind(self, partition: RowPartition, values: np.ndarray) -> None:
        self.partition = partition
        self.values = values
        edges = [0, *np.cumsum(partition.sizes()).tolist()]
        self.parts = [values[lo:hi] for lo, hi in zip(edges, edges[1:])]
        self._view_ids = list(map(id, self.parts))

    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, partition: RowPartition, values: np.ndarray) -> "DistVector":
        """Wrap (no copy) a float64 buffer laid out rank after rank."""
        if not (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.shape == (partition.nrows,)
            and values.flags.c_contiguous
        ):
            raise ShapeError(
                f"values must be a contiguous float64 array of length {partition.nrows}"
            )
        vec = cls.__new__(cls)
        vec._bind(partition, values)
        return vec

    @classmethod
    def from_global(cls, x: np.ndarray, partition: RowPartition) -> "DistVector":
        """Scatter a global vector onto the partition."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (partition.nrows,):
            raise ShapeError(f"global vector must have length {partition.nrows}")
        return cls.from_values(partition, x[np.concatenate(partition.global_ids)])

    @classmethod
    def zeros(cls, partition: RowPartition) -> "DistVector":
        """All-zero vector on the partition."""
        return cls.from_values(partition, np.zeros(partition.nrows))

    def to_global(self) -> np.ndarray:
        """Gather into a global vector (testing/IO helper)."""
        out = np.empty(self.partition.nrows, dtype=np.float64)
        out[np.concatenate(self.partition.global_ids)] = self.values
        return out

    def copy(self) -> "DistVector":
        """Deep copy."""
        return DistVector.from_values(self.partition, self.values.copy())

    def copy_from(self, other: "DistVector") -> "DistVector":
        """In-place ``self[:] = other`` (no allocation); returns self."""
        self._check_compatible(other)
        np.copyto(self.values, other.values)
        return self

    def check_views(self, label: str = "vector") -> None:
        """Raise :class:`ValueError` unless every part is still the view of
        :attr:`values` it was built as (a rebound part would be silently
        ignored by every whole-buffer operation)."""
        if list(map(id, self.parts)) == self._view_ids:
            return
        for p, part in enumerate(self.parts):
            if not isinstance(part, np.ndarray):
                raise ValueError(
                    f"{label}.parts[{p}] is {type(part).__name__}; workspace "
                    "operands must be numpy arrays"
                )
            if part.dtype != np.float64:
                raise ValueError(
                    f"{label}.parts[{p}] has dtype {part.dtype}; workspace "
                    "buffers are float64 and refuse to cast silently — "
                    "convert the operand explicitly"
                )
        raise ValueError(
            f"{label}.parts was rebound: parts are views of the vector's one "
            "values buffer — write into them in place"
        )

    # ------------------------------------------------------------------
    def _check_compatible(self, other: "DistVector") -> None:
        if self.partition != other.partition:
            raise ShapeError("vectors live on different partitions")

    def dot(self, other: "DistVector", tracker: CommTracker | None = None) -> float:
        """Global dot product (per-rank partials, summed in rank order, + allreduce)."""
        self._check_compatible(other)
        partial = sum(map(float, map(np.ndarray.dot, self.parts, other.parts)))
        if tracker is not None:
            tracker.record_collective("allreduce", 8 * self.partition.nparts)
        return partial

    def norm2(self, tracker: CommTracker | None = None) -> float:
        """Global Euclidean norm (one allreduce)."""
        return float(np.sqrt(max(self.dot(self, tracker), 0.0)))

    def axpy(self, alpha: float, x: "DistVector") -> "DistVector":
        """In-place ``self += alpha·x``; returns self."""
        self._check_compatible(x)
        self.values += alpha * x.values
        return self

    def xpay(self, x: "DistVector", alpha: float) -> "DistVector":
        """In-place ``self = x + alpha·self``; returns self."""
        self._check_compatible(x)
        self.values *= alpha
        self.values += x.values
        return self

    def scale(self, alpha: float) -> "DistVector":
        """In-place scalar multiply; returns self."""
        self.values *= alpha
        return self

    def fill(self, value: float) -> "DistVector":
        """Set every entry to ``value``; returns self."""
        self.values.fill(value)
        return self

    def __repr__(self) -> str:
        return f"DistVector(n={self.partition.nrows}, nparts={self.partition.nparts})"

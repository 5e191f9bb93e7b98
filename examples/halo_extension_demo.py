#!/usr/bin/env python3
"""Figure 1 illustration: where FSAIE-Comm may add halo entries.

Run:  python examples/halo_extension_demo.py

Reproduces the paper's Figure 1 as ASCII art: a small matrix distributed
over two ranks, showing the local regions, the halo regions, the initial
entries, and the cells where the communication-aware extension is allowed to
add new entries (already-received columns of already-sent rows).
"""

from __future__ import annotations

from repro.core import ExtensionMode, extend_dist_pattern, fsai_pattern
from repro.dist import DistMatrix, RowPartition
from repro.matgen import poisson2d


def main() -> None:
    # a 20x20 banded SPD matrix split into two ranks, like the paper's figure
    mat = poisson2d(4, 5)  # 20 unknowns
    n = mat.nrows
    part = RowPartition.contiguous(n, 2)
    base = fsai_pattern(mat)
    dist = DistMatrix.from_global(base.to_csr(), part)

    # compute the communication-aware extension with wide cache lines so the
    # eligible region is clearly visible
    extension = extend_dist_pattern(dist, line_bytes=256, mode=ExtensionMode.COMM)
    added = set(zip(extension.rows.tolist(), extension.cols.tolist()))

    owner = part.owner
    legend = {
        "#": "initial pattern entry (lower triangle of A)",
        "+": "entry added by FSAIE-Comm (local)",
        "O": "entry added by FSAIE-Comm (halo, communication-free)",
        ".": "local region",
        " ": "upper triangle (unused by G)",
        "-": "halo region (off-rank coupling area)",
    }

    print("FSAIE-Comm halo extension on a 20x20 matrix, 2 ranks "
          "(rows 0-9 on rank 0, rows 10-19 on rank 1)\n")
    header = "    " + "".join(f"{j:>2d}" for j in range(n))
    print(header)
    for i in range(n):
        cells = []
        for j in range(n):
            if j > i:
                ch = " "
            elif base.contains(i, j):
                ch = "#"
            elif (i, j) in added:
                ch = "O" if owner[i] != owner[j] else "+"
            elif owner[i] == owner[j]:
                ch = "."
            else:
                ch = "-"
            cells.append(f" {ch}")
        print(f"{i:>3d} " + "".join(cells))

    print("\nlegend:")
    for ch, meaning in legend.items():
        print(f"  {ch!r}: {meaning}")

    n_local = extension.n_local_added.sum()
    n_halo = extension.n_halo_added.sum()
    print(f"\nadded entries: {n_local} local, {n_halo} halo "
          f"(halo additions only in columns already received and rows already sent)")

    # verify the figure's claim programmatically
    from repro.dist import HaloSchedule
    from repro.core.precond import _union_with_entries

    ext_pattern = _union_with_entries(base, extension.rows, extension.cols)
    assert HaloSchedule.from_pattern(ext_pattern, part) == HaloSchedule.from_pattern(base, part)
    print("halo schedule unchanged ✓")


if __name__ == "__main__":
    main()

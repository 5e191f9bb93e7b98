"""Compare two result documents of ``run.py --json``: ``compare_runs.py A.json B.json``.

Per workload and end-to-end metric it prints both medians, the relative
difference of B against A and the bound from ``BENCHMARK.json``, and exits 1
if B is worse than A by more than the bound on any of them.  Two runs of the
same commit must pass in both orders; that is the benchmark's repeatability
criterion.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def compare(a: dict, b: dict, end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines and whether every shared workload x metric stays within its bound."""
    lines = [f"{'workload':20s} {'metric':14s} {'A':>12s} {'B':>12s} {'B vs A':>9s} {'bound':>7s}"]
    ok = True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        for metric in end_to_end:
            key = metric["name"]
            va = a["workloads"][name]["metrics"][key]["value"]
            vb = b["workloads"][name]["metrics"][key]["value"]
            rel = (vb - va) / va
            worse = rel if metric["better"] == "lower" else -rel
            verdict = ""
            if worse > metric["bound"]:
                verdict = "  WORSE"
                ok = False
            lines.append(
                f"{name:20s} {key:14s} {va:12.5g} {vb:12.5g} {rel:+9.2%} {metric['bound']:7.0%}{verdict}"
            )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    end_to_end = json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    lines, ok = compare(a, b, end_to_end)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

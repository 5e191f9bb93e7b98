#!/usr/bin/env python3
"""Lint the public API surface against the generated reference.

Run:  python scripts/check_api_surface.py

Checks, for every package listed in ``scripts/gen_api_docs.py``:

1. every name in the module's ``__all__`` resolves via ``getattr`` (no stale
   exports),
2. ``docs/API.md`` is byte-identical to what ``scripts/gen_api_docs.py``
   generates now (``--check``): a changed name, signature or summary line
   without regeneration fails,
3. the module has a docstring (the generated reference leads with it), and
4. for the packages in :data:`DOC_COVERAGE` — the observability, kernel
   and resilience layers, whose contracts live in prose — every
   exported function/class *and every public method* carries a docstring.

Exit code 0 when clean; 1 with a line per violation otherwise.  Wired into
the test suite as ``tests/test_api_surface.py``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen_api_docs  # noqa: E402 — sibling script, same package list

PACKAGES = gen_api_docs.PACKAGES

#: Packages whose exported callables must all be docstring-covered.
DOC_COVERAGE = (
    "repro.observe",
    "repro.kernels",
    "repro.resilience",
    "repro.cachesim",
    "repro.serve",
)


def check_doc_coverage(modname: str) -> list[str]:
    """Docstring coverage of one package's ``__all__`` surface."""
    problems: list[str] = []
    try:
        mod = importlib.import_module(modname)
    except Exception as exc:  # pragma: no cover — import errors are the finding
        return [f"{modname}: import failed: {exc!r}"]
    for name in getattr(mod, "__all__", []):
        obj = getattr(mod, name, None)
        if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if not inspect.getdoc(obj):
            problems.append(f"{modname}.{name}: missing docstring")
        if inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                target = attr.fget if isinstance(attr, property) else attr
                if not callable(target):
                    continue
                if not inspect.getdoc(target):
                    problems.append(
                        f"{modname}.{name}.{attr_name}: missing docstring"
                    )
    return problems


def check_package(modname: str) -> list[str]:
    problems: list[str] = []
    try:
        mod = importlib.import_module(modname)
    except Exception as exc:  # pragma: no cover — import errors are the finding
        return [f"{modname}: import failed: {exc!r}"]
    if not inspect.getdoc(mod):
        problems.append(f"{modname}: missing module docstring")
    exported = getattr(mod, "__all__", None)
    if exported is None:
        return problems
    seen = set()
    for name in exported:
        if name in seen:
            problems.append(f"{modname}.__all__ lists {name!r} twice")
        seen.add(name)
        if not hasattr(mod, name):
            problems.append(f"{modname}.__all__ exports {name!r} but it is not defined")
    return problems


def main() -> int:
    problems: list[str] = []
    for pkg in PACKAGES:
        problems.extend(check_package(pkg))
    for pkg in DOC_COVERAGE:
        problems.extend(check_doc_coverage(pkg))
    # rendering imports every package, so it runs once they all import
    if not problems and gen_api_docs.main(["--check"]) != 0:
        problems.append("docs/API.md differs from the generated reference")
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"{len(problems)} API surface problem(s)", file=sys.stderr)
        return 1
    print(
        f"API surface clean: {len(PACKAGES)} packages checked against "
        f"{gen_api_docs.TARGET.name}, "
        f"docstring coverage enforced for {', '.join(DOC_COVERAGE)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Lint the public API surface against the generated reference.

Run:  python scripts/check_api_surface.py

Checks, for every package listed in ``scripts/gen_api_docs.py``:

1. every name in the module's ``__all__`` resolves via ``getattr`` (no stale
   exports),
2. ``docs/API.md`` is byte-identical to what ``scripts/gen_api_docs.py``
   generates now (``--check``): a changed name, signature or summary line
   without regeneration fails,
3. the module has a docstring (the generated reference leads with it),
4. for the packages in :data:`DOC_COVERAGE` — the observability, kernel
   and resilience layers, whose contracts live in prose — every
   exported function/class *and every public method* carries a docstring,
   and
5. every exported name has a caller: non-test code outside the module that
   defines it — another ``src/`` module (``__init__`` re-exports and
   ``__all__`` strings do not count), ``benchmarks/``, ``scripts/`` or
   ``examples/`` — uses it, or it is listed in :data:`ALLOWED_UNCALLED`
   with the reason it is public anyway.  A name only tests use leaves
   ``__all__`` (it stays importable from its submodule), so the surface
   cannot grow back.

Exit code 0 when clean; 1 with a line per violation otherwise.  Wired into
the test suite as ``tests/test_api_surface.py``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen_api_docs  # noqa: E402 — sibling script, same package list

PACKAGES = gen_api_docs.PACKAGES
REPO = Path(__file__).resolve().parent.parent

#: Where the callers of an exported name may live (``tests/`` never counts).
CALLER_DIRS = ("src", "benchmarks", "scripts", "examples")

#: Exported names that no non-test code outside their module uses, and why
#: each is public anyway.  Allowed reasons: a return type a caller receives,
#: an error type a caller catches, a primitive CONTRIBUTING tells rank
#: programs to use.  Every other uncalled name leaves ``__all__``.
ALLOWED_UNCALLED = {
    "repro.mpisim.SelfComm": "the one-rank communicator rank programs can be tested on",
    "repro.mpisim.waitall": "rank programs await it to complete their requests",
    "repro.mpisim.waitany": "rank programs await it to complete their requests",
    "repro.mpisim.Request": "returned by Comm.isend / Comm.irecv",
    "repro.instrument.Counter": "returned by MetricsRegistry.counter",
    "repro.instrument.Gauge": "returned by MetricsRegistry.gauge",
    "repro.instrument.Histogram": "returned by MetricsRegistry.histogram",
    "repro.observe.ReportComparison": "returned by RunReport.compare",
    "repro.observe.MetricDelta": "the rows of ReportComparison.deltas",
    "repro.observe.CriticalPath": "returned by Timeline.critical_path",
    "repro.observe.HaloCriticalPath": "returned by halo_critical_path",
    "repro.observe.AttributionVerdict": "returned by attribute",
    "repro.observe.ClusterTelemetry": "what TelemetryConfig.result holds after a run",
    "repro.observe.aggregate_telemetry": "rank programs await it (CONTRIBUTING)",
    "repro.observe.TimelineError": "raised by Timeline.load on a malformed document",
    "repro.observe.ExplainError": "raised by AttributionVerdict.load on a malformed document",
    "repro.observe.ConformanceError": "raised by ConformanceReport.load on a malformed document",
    "repro.observe.MemTrafficError": "raised by FreeRideLedger.load / CacheConformance.load",
    "repro.resilience.FaultInjector": "what the fault_injection context yields",
    "repro.resilience.FailoverResult": "returned by solve_with_failover",
    "repro.resilience.ChaosScenario": "the entries of standard_menu / quick_menu",
    "repro.resilience.ScenarioOutcome": "the rows of ChaosReport.scenarios",
    "repro.resilience.ChaosError": "raised by ChaosReport.load on a malformed document",
    "repro.perfmodel.IterationCost": "returned by CostModel.iteration_cost",
    "repro.matgen.PaperRecord": "what MatrixCase.paper holds",
    "repro.analysis.ImprovementSummary": "returned by summarize_improvements",
    "repro.analysis.SpectralEstimate": "returned by CGResult.spectral_estimate",
}

#: The allow-list stays short enough to review.
MAX_ALLOWED_UNCALLED = 40

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


def _module_file(modname: str) -> Path:
    path = REPO.joinpath("src", *modname.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _exported(modname: str) -> list[str]:
    """The literal ``__all__`` of a module (empty when it has none)."""
    for node in ast.parse(_module_file(modname).read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _defining_file(modname: str, name: str) -> Path:
    """The file that binds ``name`` in ``modname``, following re-exports."""
    path = _module_file(modname)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _defining_file(node.module, alias.name)
    return path


def _used_names(path: Path) -> set[str]:
    """Identifiers a file uses: names, attributes and, outside ``__init__``
    files (whose imports are re-exports), imported names."""
    reexports = path.name == "__init__.py"
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias) and not reexports:
            used.add(node.name.rpartition(".")[2])
    return used


def uncalled_exports() -> list[str]:
    """Rule 5: one line per exported name without a non-test caller that
    :data:`ALLOWED_UNCALLED` does not excuse, and per stale allow-list entry."""
    used = {
        path: _used_names(path)
        for top in CALLER_DIRS
        for path in sorted((REPO / top).rglob("*.py"))
    }
    problems = []
    exported = set()
    for pkg in PACKAGES:
        for name in _exported(pkg):
            key = f"{pkg}.{name}"
            exported.add(key)
            home = _defining_file(pkg, name)
            called = any(name in names for path, names in used.items() if path != home)
            if called and key in ALLOWED_UNCALLED:
                problems.append(f"{key}: has a caller, drop it from ALLOWED_UNCALLED")
            elif not called and key not in ALLOWED_UNCALLED:
                problems.append(
                    f"{key}: exported but no non-test code outside "
                    f"{home.relative_to(REPO)} uses it"
                )
    for key in sorted(set(ALLOWED_UNCALLED) - exported):
        problems.append(f"{key}: in ALLOWED_UNCALLED but not exported")
    if len(ALLOWED_UNCALLED) > MAX_ALLOWED_UNCALLED:
        problems.append(
            f"ALLOWED_UNCALLED has {len(ALLOWED_UNCALLED)} entries "
            f"(at most {MAX_ALLOWED_UNCALLED})"
        )
    return problems


def main() -> int:
    problems: list[str] = []
    for pkg in PACKAGES:
        problems.extend(check_package(pkg))
    problems.extend(uncalled_exports())
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
        f"docstring coverage enforced for {', '.join(DOC_COVERAGE)}, "
        f"every export called ({len(ALLOWED_UNCALLED)} allowed uncalled)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

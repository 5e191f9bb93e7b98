"""CI gate: the exported API surface matches the generated reference.

Runs ``scripts/check_api_surface.py`` as a subprocess (exactly how CI and
developers invoke it) and asserts a clean exit.  Failures mean a stale
``__all__`` entry, an exported name nothing but tests calls, or that
``docs/API.md`` needs regenerating with ``scripts/gen_api_docs.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str, root: Path = REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=120,
    )


def test_api_surface_is_clean():
    proc = run_script("check_api_surface.py")
    assert proc.returncode == 0, (
        f"check_api_surface.py failed:\n{proc.stdout}{proc.stderr}"
    )
    assert "API surface clean" in proc.stdout


def test_every_all_name_importable_in_process():
    # belt-and-braces in-process variant: importable without the docs check
    import importlib

    sys.path.insert(0, str(REPO / "scripts"))
    try:
        from gen_api_docs import PACKAGES
    finally:
        sys.path.pop(0)
    for pkg in PACKAGES:
        mod = importlib.import_module(pkg)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{pkg}.__all__ exports undefined {name!r}"


def test_check_mode_flags_a_changed_signature(tmp_path, monkeypatch, capsys):
    # names alone are not enough: a signature edited without regenerating
    # docs/API.md must trip ``gen_api_docs.py --check``
    sys.path.insert(0, str(REPO / "scripts"))
    try:
        import gen_api_docs
    finally:
        sys.path.pop(0)
    committed = (REPO / "docs" / "API.md").read_text()
    stale = tmp_path / "API.md"
    monkeypatch.setattr(gen_api_docs, "TARGET", stale)
    stale.write_text(committed.replace("workspace: 'SolverWorkspace | None'",
                                       "workspace: 'SolverWorkspace | bool | None'"))
    assert stale.read_text() != committed
    assert gen_api_docs.main(["--check"]) == 1
    assert "is stale" in capsys.readouterr().err


def test_gate_names_an_export_only_tests_call(tmp_path):
    # a copy of the tree whose repro.analysis re-exports a name that only
    # tests use: the surface gate must fail and say which name
    for top in ("src", "scripts", "benchmarks", "examples"):
        shutil.copytree(
            REPO / top, tmp_path / top,
            ignore=shutil.ignore_patterns("__pycache__", "*.json", "*.egg-info"),
        )
    init = tmp_path / "src" / "repro" / "analysis" / "__init__.py"
    text = init.read_text()
    for old, new in (
        ("    estimate_spectrum,\n", "    estimate_spectrum,\n    lanczos_tridiagonal,\n"),
        ('    "estimate_spectrum",\n', '    "estimate_spectrum",\n    "lanczos_tridiagonal",\n'),
    ):
        assert old in text
        text = text.replace(old, new)
    init.write_text(text)
    proc = run_script("check_api_surface.py", root=tmp_path)
    assert proc.returncode == 1
    assert "repro.analysis.lanczos_tridiagonal: exported but no non-test code" in proc.stderr

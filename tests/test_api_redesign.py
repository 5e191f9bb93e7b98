"""Tests of the solver/preconditioner API surface: ``precond=M`` resolution
and the consolidated :class:`PrecondOptions`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FilterSpec,
    FSAIOptions,
    PrecondOptions,
    SetupOptions,
    build_fsai,
    build_fsaie_comm,
    pcg,
    pipelined_pcg,
)
from repro.core.cg import resolve_precond


class TestResolvePrecond:
    def test_none_passes_through(self):
        assert resolve_precond(None) is None

    def test_object_with_apply(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        fn = resolve_precond(pre)
        assert fn == pre.apply
        z = fn(b, None)
        assert np.allclose(z.to_global(), pre.apply(b, None).to_global())

    def test_bare_callable_kept(self):
        fn = lambda r, tracker: r  # noqa: E731
        assert resolve_precond(fn) is fn

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError, match="precond"):
            resolve_precond(42)
        with pytest.raises(TypeError):
            resolve_precond(object())

    def test_solvers_accept_object_and_callable(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        via_object = pcg(da, b, precond=pre)
        via_callable = pcg(da, b, precond=pre.apply)
        assert via_object.iterations == via_callable.iterations
        assert np.allclose(
            via_object.x.to_global(), via_callable.x.to_global()
        )

    def test_variant_solvers_accept_object(self, dist_poisson16):
        mat, part, da, b = dist_poisson16
        pre = build_fsai(mat, part)
        assert pipelined_pcg(da, b, precond=pre).converged


class TestPrecondOptions:
    def test_defaults(self):
        opts = PrecondOptions()
        assert opts.fsai == FSAIOptions()
        assert opts.line_bytes == 64
        assert opts.filter == FilterSpec()

    def test_sub_configs(self):
        opts = PrecondOptions(
            fsai=FSAIOptions(level=2),
            line_bytes=256,
            filter=FilterSpec(0.05, dynamic=False),
        )
        assert opts.fsai.level == 2
        assert opts.line_bytes == 256
        assert opts.filter.value == 0.05 and not opts.filter.dynamic

    def test_frozen(self):
        opts = PrecondOptions()
        with pytest.raises(AttributeError):
            opts.line_bytes = 128

    def test_setup_sub_config(self):
        opts = PrecondOptions(setup=SetupOptions(dtype="float32"))
        assert opts.setup.dtype == "float32"

    def test_setup_defaults(self):
        assert PrecondOptions().setup == SetupOptions()

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            PrecondOptions(bananas=3)

    def test_builders_share_the_surface(self, poisson3d8):
        from repro.dist import RowPartition

        part = RowPartition.from_matrix(poisson3d8, 4, seed=1)
        opts = PrecondOptions(filter=FilterSpec(0.05), line_bytes=64)
        via_options = build_fsaie_comm(poisson3d8, part, opts)
        via_overrides = build_fsaie_comm(
            poisson3d8, part, filter=FilterSpec(0.05), line_bytes=64
        )
        assert via_options.nnz == via_overrides.nnz

    def test_builders_reject_options_plus_overrides(self, poisson3d8):
        from repro.dist import RowPartition

        part = RowPartition.from_matrix(poisson3d8, 4, seed=1)
        with pytest.raises(TypeError, match="not both"):
            build_fsaie_comm(poisson3d8, part, PrecondOptions(), line_bytes=64)


class TestRemovedSpellings:
    """Everything the deleted shims tolerated now fails as a plain
    ``TypeError`` — no warning, no forwarding."""

    FLAT = ("threshold", "level", "post_filter", "filter_value", "dynamic",
            "band", "max_bisection", "backend", "setup_dtype", "batched",
            "parallel")

    def test_removed_keywords_and_values_raise(self, dist_poisson16):
        from repro.core import (
            ExtensionMode,
            ExtensionWorkspace,
            build_fsaie,
            compute_g_values,
            fsai_pattern,
        )
        from repro.kernels import SolverWorkspace, SpMVPlan
        from repro.serve.fingerprint import fingerprint_structure

        mat, part, da, b = dist_poisson16
        calls = [lambda key=key: PrecondOptions(**{key: 1}) for key in self.FLAT]
        calls += [
            lambda: PrecondOptions(filter=0.1),
            lambda: SetupOptions(batched=False),
            lambda: SetupOptions(backend="numpy"),
            lambda: SpMVPlan(da.locals[0].csr, backend="numpy"),
            lambda: SolverWorkspace(da, backend="numpy"),
            lambda: da.operator("numpy"),
            lambda: fingerprint_structure(mat, ranks=4, backend="numpy"),
            lambda: compute_g_values(mat, fsai_pattern(mat), parallel=2),
            lambda: build_fsai(mat, part, parallel=2),
            lambda: build_fsaie(mat, part, parallel=2),
            lambda: build_fsaie_comm(mat, part, parallel=2),
            lambda: ExtensionWorkspace(
                "FSAIE", mat, part, ExtensionMode.LOCAL, parallel=2
            ),
            lambda: pipelined_pcg(da, b, overlap=True),
            lambda: da.spmv(b, overlap=True),
            lambda: da.spmv(b, workspace=None),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

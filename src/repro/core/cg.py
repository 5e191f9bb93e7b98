"""Distributed (preconditioned) Conjugate Gradient solver (paper §2.1).

The implementation follows the textbook PCG recurrence with the three kernels
the paper identifies: SpMV, AXPY and dot products.  Preconditioning is split
— ``z = Gᵀ(G·r)`` — two SpMV products, exactly as the factorized approximate
inverse is applied in the paper.

Convergence criterion (paper §5.1): reduce the initial residual 2-norm by
``rtol`` (default 1e-8, eight orders of magnitude); initial guess zero.

The ``precond`` argument accepts either a first-class preconditioner object
(anything with an ``.apply(r, tracker)`` method, e.g.
:class:`repro.core.precond.Preconditioner`) or a bare callable
``z = M(r, tracker)``; see :func:`resolve_precond`.

When tracing is enabled (:mod:`repro.instrument`), every iteration emits a
``pcg.iteration`` span with ``pcg.spmv`` / ``pcg.precond`` / ``pcg.dot`` /
``pcg.axpy`` children, and the iteration count accumulates in the
``pcg.iterations`` counter.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.dist.matrix import DistMatrix
from repro.dist.vector import DistVector
from repro.errors import ConvergenceError
from repro.instrument import get_metrics, get_tracer
from repro.kernels.workspace import SolverWorkspace
from repro.mpisim.tracker import CommTracker

__all__ = [
    "CGResult",
    "pcg",
    "cg",
    "resolve_precond",
    "supports_workspace",
]

#: A bare preconditioner callable: ``z = M(r, tracker)``.
PrecondFn = Callable[[DistVector, CommTracker | None], DistVector]

#: Anything ``precond=`` accepts: an object with ``.apply``, or a callable.
PrecondLike = Any


def resolve_precond(precond: PrecondLike) -> PrecondFn | None:
    """Normalise the ``precond=`` argument of the Krylov solvers.

    Accepts (in order of precedence):

    * ``None`` — no preconditioning;
    * an object with an ``.apply(r, tracker)`` method, such as
      :class:`repro.core.precond.Preconditioner` — the modern spelling
      ``pcg(A, b, precond=M)``;
    * a bare callable ``z = M(r, tracker)`` — the legacy spelling
      ``pcg(A, b, precond=M.apply)``, still supported.
    """
    if precond is None:
        return None
    apply = getattr(precond, "apply", None)
    if callable(apply):
        return apply
    if callable(precond):
        return precond
    raise TypeError(
        "precond must be None, a Preconditioner-like object with .apply, "
        f"or a callable; got {type(precond).__name__}"
    )


def supports_workspace(apply_m: PrecondFn | None) -> bool:
    """Whether a preconditioner callable accepts ``out=`` / ``workspace=``.

    :meth:`Preconditioner.apply` does; bare callables ``z = M(r, tracker)``
    are called as they are and return a fresh vector.
    """
    if apply_m is None:
        return False
    try:
        params = inspect.signature(apply_m).parameters
    except (TypeError, ValueError):
        return False
    return "out" in params and "workspace" in params


def _make_apply(precond_fn, ws, tracker):
    """Preconditioner application closure shared by the Krylov solvers.

    Routes through the workspace (fused, allocation-free) when the
    preconditioner supports it; each distinct result buffer is named by the
    caller so concurrently-live applications never alias.
    """
    fused = supports_workspace(precond_fn)

    def apply_m(vec: DistVector, out_name: str) -> DistVector:
        if precond_fn is None:
            return ws.vector(out_name).copy_from(vec)
        if fused:
            return precond_fn(vec, tracker, out=ws.vector(out_name), workspace=ws)
        return precond_fn(vec, tracker)

    return apply_m


#: Largest ``‖b − A x − r‖ / ‖b‖`` a resilient ``pcg`` takes for rounding
#: when it checkpoints; a lost halo value moves it by O(1).
_DRIFT = 1e-6

#: Flight-recorder emission contract, parsed by :mod:`repro.observe.flight`.
#: The numbers are duplicated there on purpose: core must stay importable
#: without the observe layer, so neither package imports the other.
TRUE_RESIDUAL_INTERVAL = 25
DIVERGENCE_FACTOR = 10.0


class _FlightProbe:
    """Emission side of the solver flight recorder.

    One instance per traced solve.  Emits a ``flight.iteration`` instant
    event per iteration, an explicit true-residual drift check
    (``‖b − A·x‖₂``) every :data:`TRUE_RESIDUAL_INTERVAL` iterations, and a
    one-shot ``flight.divergence`` the first time the residual exceeds
    :data:`DIVERGENCE_FACTOR` times the initial norm.  Construct only when
    ``tracer.enabled`` is true — hot loops then pay a single
    ``probe is not None`` test per iteration when tracing is off.

    The drift check costs one extra SpMV, charged to the solve's
    :class:`CommTracker` like any other (so traced halo spans and tracker
    accounting stay equal).  It exercises the *same* halo schedule as the
    solve, so the invariance auditor's edge sets and per-update byte counts
    are unchanged by observation.
    """

    __slots__ = ("tracer", "solver", "mat", "b", "norm0", "tracker", "diverged")

    def __init__(
        self,
        tracer,
        solver: str,
        mat: DistMatrix,
        b: DistVector,
        norm0: float,
        tracker: CommTracker | None = None,
    ):
        self.tracer = tracer
        self.solver = solver
        self.mat = mat
        self.b = b
        self.norm0 = norm0
        self.tracker = tracker
        self.diverged = False

    def iteration(self, index: int, residual: float, x: DistVector, **coeffs) -> None:
        """Record iteration ``index`` ending with ``residual`` and iterate ``x``.

        ``coeffs`` carries the recurrence coefficients (``alpha=``,
        ``beta=``) and rides in the event tags.
        """
        self.tracer.event(
            "flight.iteration",
            solver=self.solver,
            index=index,
            residual=residual,
            **coeffs,
        )
        if (index + 1) % TRUE_RESIDUAL_INTERVAL == 0:
            ax = self.mat.spmv(x, self.tracker)
            true_res = self.b.copy().axpy(-1.0, ax).norm2(self.tracker)
            drift = abs(true_res - residual) / self.norm0 if self.norm0 else 0.0
            self.tracer.event(
                "flight.true_residual",
                solver=self.solver,
                index=index,
                true_residual=true_res,
                recurrence_residual=residual,
                drift=drift,
            )
        if not self.diverged and (
            not np.isfinite(residual) or residual > DIVERGENCE_FACTOR * self.norm0 > 0
        ):
            self.diverged = True
            self.tracer.event(
                "flight.divergence",
                solver=self.solver,
                index=index,
                residual=residual,
                initial=self.norm0,
            )


@dataclass
class CGResult:
    """Outcome of a CG solve.

    Attributes
    ----------
    x:
        Solution vector (distributed).
    iterations:
        CG iterations performed.
    converged:
        Whether the residual target was met within ``max_iterations``.
    residual_norms:
        ``‖r‖₂`` at iteration 0, 1, ... (length ``iterations + 1``).
    """

    x: DistVector
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        """Last recorded residual norm (NaN for empty runs)."""
        return self.residual_norms[-1] if self.residual_norms else float("nan")

    def spectral_estimate(self):
        """Ritz estimate of the preconditioned operator's spectrum.

        See :func:`repro.analysis.convergence.estimate_spectrum`; available
        when the run performed at least one iteration.
        """
        from repro.analysis.convergence import estimate_spectrum

        return estimate_spectrum(self.alphas, self.betas[: max(len(self.alphas) - 1, 0)])


def pcg(
    mat: DistMatrix,
    b: DistVector,
    *,
    precond: PrecondLike = None,
    rtol: float = 1e-8,
    max_iterations: int = 50_000,
    tracker: CommTracker | None = None,
    raise_on_fail: bool = False,
    workspace: SolverWorkspace | None = None,
    resilience=None,
) -> CGResult:
    """Preconditioned CG on a distributed SPD matrix.

    Parameters
    ----------
    precond:
        The preconditioner ``M``: an object with ``.apply(r, tracker)``
        (e.g. :class:`repro.core.precond.Preconditioner`) or a bare callable
        ``z = M(r, tracker)``.  ``None`` runs plain CG.
    tracker:
        Records halo-update and allreduce traffic of the entire solve.
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning an unconverged
        result.
    workspace:
        A :class:`SolverWorkspace` to reuse across solves (its plans and
        buffers carry over), or ``None`` to build one for this solve.
        Either way hot-loop iterations perform zero array allocations.
    resilience:
        A :class:`repro.resilience.ResilienceConfig` activates
        checkpoint-restart: the recurrence state ``(x, r, d, rz)`` is
        snapshotted every ``checkpoint_interval`` iterations, and a
        divergence trigger (non-finite/exploding residual or a
        ``dᵀAd ≤ 0`` breakdown) rolls back to the last snapshot and
        replays deterministically.  ``b − A x`` is compared with ``r`` at
        every checkpoint and once more before convergence is declared, so
        a value lost in the last window is rolled back too; a solve whose
        rollback budget runs out returns ``converged=False``.  ``None``
        (the default) imports and checks nothing — the hot loop is
        unchanged.
    """
    precond_fn = resolve_precond(precond)
    ws = workspace if workspace is not None else SolverWorkspace(mat)
    apply_m = _make_apply(precond_fn, ws, tracker)
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("pcg.solve", ranks=mat.partition.nparts,
                     preconditioned=precond_fn is not None):
        # x escapes in the result, so it is always freshly allocated
        x = DistVector.zeros(mat.partition)
        r = ws.vector("pcg.r").copy_from(b)
        norm0 = r.norm2(tracker)
        history = [norm0]
        if norm0 == 0.0:
            return CGResult(x, 0, True, history)
        target = rtol * norm0

        ad_buf = ws.vector("pcg.ad")
        d = ws.vector("pcg.d")

        def _start() -> float:
            """``z = M r``, ``d = z``; returns ``rᵀz``."""
            with tracer.span("pcg.precond"):
                z = apply_m(r, "pcg.z")
            d.copy_from(z)
            return r.dot(z, tracker)

        rz = _start()
        converged = False
        iterations = 0
        alphas: list[float] = []
        betas: list[float] = []
        iter_counter = metrics.counter("pcg.iterations")
        probe = (
            _FlightProbe(tracer, "pcg", mat, b, norm0, tracker)
            if tracer.enabled
            else None
        )

        ckpt = None
        if resilience is not None:
            from repro.resilience.recovery import CheckpointManager

            ckpt = CheckpointManager(resilience)

        exhausted = False

        def _try_rollback(cause: str):
            """One rollback, or ``None`` when the budget is exhausted."""
            nonlocal exhausted
            try:
                return ckpt.rollback(cause)
            except ConvergenceError:
                if raise_on_fail:
                    raise
                exhausted = True
                return None

        def _drifted() -> bool:
            """``r`` has left ``b − A x`` by more than rounding: a fault the
            recurrence's own checks cannot see (a lost value in ``A·d``)."""
            gap = ws.vector("pcg.gap").copy_from(b).axpy(-1.0, r)
            gap.axpy(-1.0, ws.spmv(mat, x, out=ad_buf, tracker=tracker))
            return not gap.norm2(tracker) <= _DRIFT * norm0

        def _restore(state) -> tuple[float, int]:
            """Rewind (x, r, d) and the recorded histories to ``state``.
            Iteration 0 restarts from its exact ``x`` and ``r``: nothing
            before the loop checked the ``d`` and ``rᵀz`` it saved."""
            ckpt.restore_into(state.x_parts, x)
            ckpt.restore_into(state.r_parts, r)
            del history[state.history_len :]
            del alphas[state.coeff_len :]
            del betas[state.coeff_len :]
            if state.iteration == 0:
                return _start(), 0
            ckpt.restore_into(state.d_parts, d)
            return state.rz, state.iteration

        for _ in range(max_iterations):
            if history[-1] <= target:
                # a value lost since the last checkpoint leaves the
                # recurrence converging to the wrong x: check once more
                if ckpt is not None and iterations and _drifted():
                    state = _try_rollback("drift")
                    if state is None:
                        break
                    rz, iterations = _restore(state)
                    continue
                converged = True
                break
            if ckpt is not None and ckpt.due(iterations):
                if iterations and _drifted():  # never save a derailed state
                    state = _try_rollback("drift")
                    if state is None:
                        break
                    rz, iterations = _restore(state)
                    continue
                ckpt.save(iterations, history[-1], rz, x, r, d)
            with tracer.span("pcg.iteration", index=iterations) as it_span:
                with tracer.span("pcg.spmv"):
                    ad = ws.spmv(mat, d, out=ad_buf, tracker=tracker)
                with tracer.span("pcg.dot"):
                    dad = d.dot(ad, tracker)
                if dad <= 0 or not np.isfinite(dad):
                    if ckpt is not None and ckpt.checkpoint is not None:
                        state = _try_rollback("breakdown")
                        if state is not None:
                            rz, iterations = _restore(state)
                            continue
                    it_span.set_tag("aborted", "not SPD or breakdown")
                    break  # matrix not SPD or breakdown
                alpha = rz / dad
                with tracer.span("pcg.axpy"):
                    x.axpy(alpha, d)
                    r.axpy(-alpha, ad)
                with tracer.span("pcg.dot", kind="norm"):
                    history.append(r.norm2(tracker))
                if ckpt is not None:
                    if ckpt.should_rollback(history[-1]):
                        state = _try_rollback("divergence")
                        if state is None:
                            it_span.set_tag("aborted", "rollback budget exhausted")
                            break
                        rz, iterations = _restore(state)
                        continue
                    ckpt.confirm()
                with tracer.span("pcg.precond"):
                    z = apply_m(r, "pcg.z")
                with tracer.span("pcg.dot"):
                    rz_new = r.dot(z, tracker)
                beta = rz_new / rz
                rz = rz_new
                d = _direction_update(z, beta, d)
                alphas.append(alpha)
                betas.append(beta)
                if probe is not None:
                    probe.iteration(iterations, history[-1], x, alpha=alpha, beta=beta)
                iterations += 1
                iter_counter.inc()

        if not converged and not exhausted and history[-1] <= target:
            # the iteration budget ran out on the converging iteration
            converged = ckpt is None or not _drifted()
        metrics.gauge("pcg.converged").set(converged)
        metrics.gauge("pcg.final_residual").set(history[-1])
    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"CG did not converge in {iterations} iterations "
            f"(residual {history[-1]:.3e}, target {target:.3e})",
            iterations,
            history[-1],
        )
    return CGResult(x, iterations, converged, history, alphas, betas)


def _direction_update(z: DistVector, beta: float, d: DistVector) -> DistVector:
    """``d ← z + beta·d`` reusing ``d``'s storage."""
    return d.xpay(z, beta)


def cg(mat: DistMatrix, b: DistVector, precond: PrecondLike = None, **kwargs) -> CGResult:
    """CG without a preconditioner by default (wrapper around :func:`pcg`).

    ``precond`` is accepted for signature parity with :func:`pcg` — the same
    object-with-``apply``/callable contract applies.
    """
    return pcg(mat, b, precond=precond, **kwargs)

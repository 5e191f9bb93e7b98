"""Simulated MPI runtime (the repo's distributed-memory substrate).

The paper runs on MPI over up to 32 768 cores; offline we substitute an
MPI-like SPMD runtime with identical semantics for the traffic the solvers
send: ranks, blocking point-to-point messages with tags, and over them the
halo exchange of each SpMV and the allreduce of each dot product.  A
:class:`CommTracker` records every message so communication-invariance
(the paper's core guarantee) is a testable property.

Public surface:

* :func:`run_spmd` — execute a rank program on N ranks.  One engine: rank
  programs are coroutines (``async def``) interleaved on the calling
  thread by a cooperative scheduler, so a run is a pure function of the
  program and the rank count, and thousands of ranks cost no threads.
* :class:`ClockModel` — the modeled clock (α–β link, compute rates):
  ``comm.now()`` reads a rank's clock, ``comm.advance(seconds)`` charges
  compute; nothing in the runtime reads the host's clock or sleeps.
* :class:`Comm` — the communicator each rank program receives.
* :class:`Request` — the handle ``comm.irecv`` returns.

What a rank program awaits: ``recv``, ``Request.wait`` and ``allreduce``
(a sum, by recursive doubling over ``send`` / ``recv``).  What it calls
plainly: ``send``, ``irecv``, ``now()``, ``advance()``.  Every exchange is
point-to-point messages, so the tracker, the tracer and the fault
injector see each one, in every run.

* :class:`CommTracker`, :func:`payload_nbytes` — traffic accounting.
* :func:`get_injector` / :func:`install_injector` / :func:`clear_injector` —
  the fault-injection hook consumed by :mod:`repro.resilience`.
"""

from repro.mpisim.comm import ANY_TAG, ClockModel
from repro.mpisim.engine import Comm, Request, run_spmd
from repro.mpisim.injection import (
    DuplicateEnvelope,
    clear_injector,
    get_injector,
    install_injector,
)
from repro.mpisim.tracker import CommTracker, payload_nbytes

__all__ = [
    "Comm",
    "ClockModel",
    "Request",
    "ANY_TAG",
    "run_spmd",
    "CommTracker",
    "payload_nbytes",
    "get_injector",
    "install_injector",
    "clear_injector",
    "DuplicateEnvelope",
]

"""Simulated MPI runtime (the repo's distributed-memory substrate).

The paper runs on MPI over up to 32 768 cores; offline we substitute an
MPI-like SPMD runtime with identical semantics for the traffic the solvers
send: ranks, point-to-point messages with tags, and over them the halo
exchange of each SpMV and the allreduce of each dot product.  The solvers
of :mod:`repro.dist.spmd` run it as a clock ledger over every rank at
once; this package holds what that ledger is made of.  A
:class:`CommTracker` records every message so communication-invariance
(the paper's core guarantee) is a testable property.

Public surface:

* :class:`ClockModel` — the modeled clock (α–β link, compute rates): a
  message becomes matchable at sender-clock + α + β·bytes, a receive sets
  the receiver's clock to ``max(own, arrival)``, and compute is charged at
  the roofline price; nothing in the runtime reads the host's clock or
  sleeps.
* :mod:`~repro.mpisim.collectives` — the allreduce's recursive-doubling
  rounds (:func:`~repro.mpisim.collectives.allreduce_schedule`), run for
  all ranks at once by :func:`~repro.mpisim.collectives.reduce_rounds`
  (a butterfly over a reshape of the clocks and a halving sum of the
  partials: no gather per round).
* :class:`CommTracker`, :func:`payload_nbytes` — traffic accounting.
* :func:`get_injector` / :func:`install_injector` / :func:`clear_injector` —
  the fault-injection hook consumed by :mod:`repro.resilience`;
  :class:`DuplicateEnvelope` sizes a duplicated message.
"""

from repro.mpisim.comm import ClockModel
from repro.mpisim.injection import (
    DuplicateEnvelope,
    clear_injector,
    get_injector,
    install_injector,
)
from repro.mpisim.tracker import CommTracker, payload_nbytes

__all__ = [
    "ClockModel",
    "CommTracker",
    "payload_nbytes",
    "get_injector",
    "install_injector",
    "clear_injector",
    "DuplicateEnvelope",
]

"""``repro.engine`` — the chase execution engine subsystem.

Every saturation in the library (the three chase variants and the
semi-naive Datalog closure) runs on the machinery in this package: one
strategy-driven saturation loop (:class:`ChaseRunner` +
:class:`VariantPolicy` in :mod:`repro.engine.runner`), one shared
pivot-decomposition core whose one per-slice function every delta round
runs, one engine registry, one fan-out backend (the persistent
:class:`WorkerPool`, which routes, matches and merges) and one firing
path (the runner's lazy claim/output stream into
:meth:`~repro.chase.result.ChaseResult.record_round`, which always runs
in the parent).  The variant modules under ``repro.chase``
(and the closure in ``repro.rewriting.datalog``) are thin policy
declarations over the runner.  The UCQ rewriter grows no instance and
runs its own breadth loop (:func:`repro.rewriting.rewriter.rewrite`).

Engine selection
----------------
APIs that run rounds accept ``engine=`` as a registered name or an
explicit :class:`EngineConfig`:

======================  =====================================================
``engine="delta"``      Sequential semi-naive enumeration (the default):
                        each round joins rule bodies pivoted on the
                        previous round's delta on the id join kernel.
``engine="naive"``      Full re-match reference engine; the ground truth
                        the others are tested against.
``engine="parallel"``   The parallel mode at one worker: rounds run
                        inline.  ``EngineConfig("parallel", workers=8)``
                        runs them on an eight-process pool.
``engine="persistent"`` The parallel mode at four workers, on persistent
                        delta-fed process workers (:class:`WorkerPool`):
                        id-native :class:`ColumnarInstance` replicas
                        seeded once, per-round delta sync, and
                        enumeration — the restricted chase's
                        head-satisfaction pruning included — run on the
                        replicas; rounds fire in the parent.
======================  =====================================================

A parallel-mode round runs one of two ways: inline at ``workers=1``, or
on the pool at ``workers > 1`` (:attr:`EngineConfig.uses_pool`).
Unknown names raise :class:`~repro.errors.ChaseError` listing the valid
engines; :func:`register_engine` adds presets.

Routing
-------
On the pool each round's delta is hash-partitioned by
:meth:`WorkerPool.round_matches`, one slice per worker, and each worker
enumerates its slice against its replica; a round whose delta lands on
one worker runs inline.  The routing is invisible in the results.

Determinism guarantees
----------------------
All engines fire the same triggers in the same canonical order — per rule
in rule-set order, matches sorted by body-variable image — and therefore
produce bit-identical :class:`~repro.chase.result.ChaseResult` instances:
same atoms, levels, timestamps, null names and provenance records.  For
the pool this holds for *every* worker count because the merge is a
keyed union on canonical images followed by a sort, and firing always
runs in the parent; the equivalence
suite (``tests/test_runner_equivalence.py``) pins this across the corpus
families.

Performance model
-----------------
Every delta round joins on integer rows (the join kernel in
:mod:`repro.engine.core`), inline and on the pool's columnar replicas,
on every engine but ``naive``, and every round records its provenance
in one :meth:`~repro.chase.result.ChaseResult.record_round` pass.  A
pooled round stays on ids from routing to reply and builds one ``Atom``
per new atom, in the parent.  Against inline ``delta`` (2-CPU host,
CPython 3.11 with the GIL, transitivity on a path, pool start-up in the
call, GC off, medians of 10 alternating pairs) two workers ran
``semi_naive_closure`` of 200 and 300 edges 10-20% faster and of 120
edges 2-7% faster, ``restricted_chase`` of 120 edges 12% faster and of
80 edges even, and ``oblivious_chase`` of 120 edges 2.3x slower, for a
cause not measured; ``engine/README.md`` has the rows.
"""

from repro.engine.columnar import ColumnarInstance, Vocabulary
from repro.engine.config import (
    DEFAULT_PARALLEL_WORKERS,
    EngineConfig,
    available_engines,
    register_engine,
    registered_engines,
    resolve_engine,
)
from repro.engine.core import (
    delta_homomorphisms,
    delta_rows,
    derive_delta_atoms,
    rule_delta_images,
)
from repro.engine.runner import ChaseRunner, VariantPolicy
from repro.engine.workers import TRANSPORT_STATS, WorkerPool

__all__ = [
    "ChaseRunner",
    "ColumnarInstance",
    "DEFAULT_PARALLEL_WORKERS",
    "EngineConfig",
    "VariantPolicy",
    "TRANSPORT_STATS",
    "Vocabulary",
    "WorkerPool",
    "available_engines",
    "delta_homomorphisms",
    "delta_rows",
    "derive_delta_atoms",
    "register_engine",
    "registered_engines",
    "resolve_engine",
    "rule_delta_images",
]

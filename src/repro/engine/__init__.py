"""``repro.engine`` — the chase execution engine subsystem.

Every saturation in the library (the three chase variants and the
semi-naive Datalog closure) runs on the machinery in this package: one
strategy-driven saturation loop (:class:`ChaseRunner` +
:class:`VariantPolicy` in :mod:`repro.engine.runner`), one shared
pivot-decomposition core, one engine registry, one fan-out backend (the
persistent :class:`WorkerPool`, driven by the :class:`RoundScheduler`,
which matches) and one firing path (:func:`fire_round`, which always runs
in the parent).  The variant modules under ``repro.chase``
(and the closure in ``repro.rewriting.datalog``) are thin policy
declarations over the runner.

Engine selection
----------------
APIs that run rounds accept ``engine=`` as a registered name or an
explicit :class:`EngineConfig`:

======================  =====================================================
``engine="delta"``      Sequential semi-naive enumeration (the default):
                        each round matches rule bodies pivoted on the
                        previous round's delta through the positional index.
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
On the pool each round's delta is hash-partitioned by the
:class:`RoundScheduler`, one slice per worker, and each worker
enumerates its slice against its replica.  The routing is invisible in
the results.

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
Existential-free rules join on integer rows (the join kernel in
:mod:`repro.engine.core`), and the batched firing path
(:mod:`repro.engine.batch`) amortizes provenance recording over a whole
round — both inline, on every engine but ``naive``.  The pool adds
multicore matching for closures and chases whose per-round work
outweighs the per-round delta sync (see
``benchmarks/bench_exp13_parallel.py`` and ``bench_exp14_persistent.py``).
"""

from repro.engine.batch import RoundOutcome, fire_round
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
    as_delta_instance,
    delta_homomorphisms,
    derive_delta_atoms,
    rule_delta_images,
)
from repro.engine.runner import ChaseRunner, RoundPlan, VariantPolicy
from repro.engine.scheduler import RoundScheduler
from repro.engine.wire import WireDecoder, WireEncoder
from repro.engine.workers import TRANSPORT_STATS, WorkerPool

__all__ = [
    "ChaseRunner",
    "ColumnarInstance",
    "DEFAULT_PARALLEL_WORKERS",
    "EngineConfig",
    "RoundOutcome",
    "RoundPlan",
    "RoundScheduler",
    "VariantPolicy",
    "TRANSPORT_STATS",
    "Vocabulary",
    "WireDecoder",
    "WireEncoder",
    "WorkerPool",
    "as_delta_instance",
    "available_engines",
    "delta_homomorphisms",
    "derive_delta_atoms",
    "fire_round",
    "register_engine",
    "registered_engines",
    "resolve_engine",
    "rule_delta_images",
]

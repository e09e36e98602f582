"""``repro.engine`` — the chase execution engine subsystem.

Every saturation in the library (the three chase variants and the
semi-naive Datalog closure) runs on the machinery in this package: one
strategy-driven saturation loop (:class:`ChaseRunner` +
:class:`VariantPolicy` in :mod:`repro.engine.runner`), one shared
pivot-decomposition core, one engine registry, one scheduler for parallel
fan-out, and one batched firing path.  The variant modules under
``repro.chase`` (and the closure in ``repro.rewriting.datalog``) are thin
policy declarations over the runner.

Engine selection
----------------
APIs that run rounds accept ``engine=`` as a registered name or an
explicit :class:`EngineConfig`:

======================  =====================================================
``engine="delta"``      Sequential semi-naive enumeration (chase default):
                        each round matches rule bodies pivoted on the
                        previous round's delta through the positional index.
``engine="naive"``      Full re-match reference engine; the ground truth
                        the others are tested against.
``engine="parallel"``   Sharded scheduler + batched firing (closure
                        default).  ``EngineConfig("parallel", workers=8)``
                        tunes the pool; ``use_processes=True`` swaps the
                        thread pool for processes.
``engine="persistent"`` The parallel engine on persistent delta-fed
                        process workers (:class:`WorkerPool`): replicas
                        seeded once, per-round delta sync instead of
                        per-round full-context pickles, sharded firing,
                        and the restricted chase's head-satisfaction
                        pruning run on the replicas.
                        ``adaptive_routing=True`` swaps the
                        hash-uniform shard placement for size-balanced
                        bin packing.  Replicas are id-native
                        :class:`ColumnarInstance` columns by default
                        (``columnar=False`` restores object replicas
                        for ablation); ``shared_memory=True`` moves
                        payloads above ``shm_threshold`` bytes off the
                        pipes into :class:`SegmentPool` shared-memory
                        segments.
======================  =====================================================

Unknown names raise :class:`~repro.errors.ChaseError` listing the valid
engines; :func:`register_engine` adds presets.

Sharding
--------
The parallel engine routes each round's delta through a
:class:`~repro.engine.shards.ShardedIndex`: atoms are hash-partitioned
into per-shard positional-indexed instances (with per-shard ``delta_since``
views), one enumeration task runs per non-empty shard against the full
instance, and the shard count defaults to the worker count.  Shard
assignment is invisible in the results.

Determinism guarantees
----------------------
All engines fire the same triggers in the same canonical order — per rule
in rule-set order, matches sorted by body-variable image — and therefore
produce bit-identical :class:`~repro.chase.result.ChaseResult` instances:
same atoms, levels, timestamps, null names and provenance records.  For
the parallel engine this holds for *every* worker/shard count because the
merge is a keyed union on canonical images followed by a sort; the
equivalence suite (``tests/test_engine_parallel.py``) pins this across the
corpus families.

Performance model
-----------------
The batched firing path (:mod:`repro.engine.batch`) amortizes provenance
recording over a whole round, and the closure's derivation mode skips
trigger identity entirely — these wins apply even single-threaded, which
is what ``engine="parallel"`` buys on a GIL build (see
``benchmarks/bench_exp13_parallel.py``).  Thread fan-out adds concurrency
on free-threaded builds; ``use_processes=True`` trades per-round pickling
for GIL-free matching on multicore machines.
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
from repro.engine.shards import ShardedIndex
from repro.engine.shm import SegmentPool, SegmentReader, SegmentRef, shm_available
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
    "SegmentPool",
    "SegmentReader",
    "SegmentRef",
    "VariantPolicy",
    "ShardedIndex",
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
    "shm_available",
]

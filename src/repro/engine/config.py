"""Engine configuration and the engine registry.

The chase variants and the Datalog closure accept an ``engine`` argument
that is either a registered engine *name* or an :class:`EngineConfig`
instance.  The registry replaces the ad-hoc ``engine="delta"|"naive"``
string checks that used to live in ``chase/oblivious.py``: every entry
point resolves its argument through :func:`resolve_engine`, which raises a
:class:`~repro.errors.ChaseError` naming the valid engines on a typo.

Built-in engines
----------------
``delta``
    Sequential semi-naive enumeration (the default of every chase
    variant): each round only matches rule bodies pivoted on the previous
    round's delta.
``naive``
    Full re-match reference implementation; kept as the ground truth the
    other engines are tested against.
``parallel``
    The sharded round scheduler plus batched firing
    (:mod:`repro.engine.scheduler`, :mod:`repro.engine.batch`): trigger
    enumeration fans out over a worker pool (threads by default, processes
    opt-in) and a whole round is applied with one amortized recording
    pass.  Results are bit-identical to ``delta``.
``persistent``
    The parallel engine backed by persistent delta-fed process workers
    (:mod:`repro.engine.workers`): each worker holds a long-lived replica
    of the instance seeded once at pool start and synced with only the
    per-round delta, and both enumeration *and* firing are sharded across
    the pool.  ``"persistent"`` is sugar for ``mode="parallel"`` with
    ``persistent=True``; results are bit-identical to ``delta`` for every
    worker/shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ChaseError

#: Default fan-out of the ``parallel`` engine.  Chosen for laptop-scale
#: corpora; raise it via an explicit :class:`EngineConfig` on bigger boxes.
DEFAULT_PARALLEL_WORKERS = 4


#: The execution modes the chase variants know how to dispatch on.
#: ``"persistent"`` is accepted as a mode spelling but normalizes to
#: ``mode="parallel"`` + ``persistent=True`` at construction — the chase
#: variants only ever dispatch on the first three.
MODES = ("delta", "naive", "parallel", "persistent")


@dataclass(frozen=True)
class EngineConfig:
    """Resolved configuration of a chase execution engine.

    Parameters
    ----------
    name:
        The registry name the configuration is selected by.  For the
        built-ins this coincides with the mode; registered presets may
        use any name (e.g. ``"turbo"``).
    mode:
        The execution mode the chase variants dispatch on — one of
        ``"delta"``, ``"naive"``, ``"parallel"``.  Defaults to ``name``;
        a preset under a custom name must set it explicitly.  Validated
        at construction, so a typo raises instead of silently running
        the wrong engine.
    workers:
        Worker-pool size used by the parallel scheduler.  ``1`` runs the
        sharded enumeration inline (useful for debugging and for the
        determinism tests); ignored by the sequential engines.
    shards:
        Number of hash shards the per-round delta is split into.  ``0``
        (the default) means one shard per worker.  The shard count never
        affects results — only how enumeration work is distributed.
    use_processes:
        When True the scheduler uses a process pool instead of threads.
        Opt-in: processes sidestep the GIL for large per-round matching
        but pay pickling costs proportional to the instance per round.
    persistent_workers:
        When True the scheduler runs on the persistent
        :class:`~repro.engine.workers.WorkerPool` instead of an executor:
        worker processes keep long-lived instance replicas fed by
        per-round deltas (no full-context pickle per round) and the
        firing path is sharded across the pool too.  Implies a
        parallel-mode engine; ``use_processes`` is irrelevant (the pool
        is always processes).
    adaptive_routing:
        When True, the persistent pool's shard→worker placement is
        size-balanced instead of hash-uniform: each round's non-empty
        shards are binned onto workers largest-first by their estimated
        byte weight (:func:`repro.engine.shards.atom_weight`), so one hot
        predicate hashing into one shard no longer serializes the pool.
        Default False — hash-uniform round-robin placement is kept as the
        reference.  Requires ``persistent_workers`` (the executor
        backends have no shard→worker placement: their task queues
        load-balance dynamically); placement never affects results, only
        load balance.
    columnar:
        When True (the default), persistent workers hold id-native
        :class:`~repro.engine.columnar.ColumnarInstance` replicas
        instead of object-level instances: packed sync buffers fold
        straight into flat id columns (no per-round ``decode_atoms``),
        membership checks run on id tuples, and atoms materialize
        lazily only where the matcher touches them.  An ablation knob — results are
        bit-identical either way; ignored by the non-persistent
        engines.
    shared_memory:
        When True, the persistent pool routes payloads of at least
        ``shm_threshold`` bytes (seed rows, sync deltas, pivot/task
        buffers) through :class:`~repro.engine.shm.SegmentPool`
        shared-memory segments; the pipes carry only small control
        envelopes holding ``(segment, offset, length)`` refs.  Opt-in
        (default False) and requires ``persistent_workers`` — the other
        backends have no long-lived processes to share segments with.
        Raises at pool start when the platform has no working
        ``multiprocessing.shared_memory`` (see
        :func:`repro.engine.shm.shm_available`).
    shm_threshold:
        Minimum payload size, in bytes, that rides shared memory when
        ``shared_memory`` is on.  Below it the raw bytes stay in the
        pipe envelope (a pickled segment ref costs ~90 bytes, so tiny
        payloads would lose).
    description:
        One-line human description, shown by ``repro chase
        --list-engines`` and usable by third-party presets.  Presentation
        only — it never affects dispatch.
    """

    name: str
    mode: str = ""
    workers: int = 1
    shards: int = 0
    use_processes: bool = False
    persistent_workers: bool = False
    adaptive_routing: bool = False
    columnar: bool = True
    shared_memory: bool = False
    shm_threshold: int = 256
    description: str = ""

    def __post_init__(self):
        if not self.mode:
            object.__setattr__(self, "mode", self.name)
        if self.mode not in MODES:
            valid = ", ".join(MODES)
            raise ChaseError(
                f"engine {self.name!r} has unknown mode {self.mode!r}; "
                f"valid modes: {valid}"
            )
        if self.mode == "persistent":
            object.__setattr__(self, "mode", "parallel")
            object.__setattr__(self, "persistent_workers", True)
        if self.persistent_workers and self.mode != "parallel":
            raise ChaseError(
                f"engine {self.name!r}: persistent_workers requires a "
                f"parallel-mode engine (got mode {self.mode!r})"
            )
        if self.adaptive_routing and not self.persistent_workers:
            raise ChaseError(
                f"engine {self.name!r}: adaptive_routing requires "
                f"persistent workers — the executor backends have no "
                f"shard→worker placement to balance (their task queues "
                f"load-balance dynamically)"
            )
        if self.shared_memory and not self.persistent_workers:
            raise ChaseError(
                f"engine {self.name!r}: shared_memory requires persistent "
                f"workers — only the long-lived pool has processes to "
                f"share segments with"
            )
        if self.shm_threshold < 1:
            raise ChaseError(
                f"engine {self.name!r} needs a positive shm_threshold, "
                f"got {self.shm_threshold}"
            )
        if self.workers < 1:
            raise ChaseError(
                f"engine {self.name!r} needs at least 1 worker, "
                f"got {self.workers}"
            )
        if self.shards < 0:
            raise ChaseError(
                f"engine {self.name!r} cannot use a negative shard count"
            )

    @property
    def is_parallel(self) -> bool:
        """True when rounds go through the sharded scheduler."""
        return self.mode == "parallel"

    @property
    def is_naive(self) -> bool:
        """True for the full re-match reference mode."""
        return self.mode == "naive"

    @property
    def is_persistent(self) -> bool:
        """True when rounds run on the persistent worker pool."""
        return self.persistent_workers

    @property
    def shard_count(self) -> int:
        """The effective number of delta shards (defaults to ``workers``)."""
        return self.shards or self.workers

    def with_workers(self, workers: int) -> "EngineConfig":
        """Return a copy with a different worker-pool size."""
        return replace(self, workers=workers)


#: The registry: engine name -> default configuration.  Insertion order is
#: the order names are listed in error messages and ``--engine`` help.
_REGISTRY: dict[str, EngineConfig] = {
    "delta": EngineConfig(
        "delta",
        description=(
            "sequential semi-naive enumeration pivoted on the previous "
            "round's delta (the default)"
        ),
    ),
    "naive": EngineConfig(
        "naive",
        description=(
            "full re-match reference engine; the ground truth the others "
            "are tested against"
        ),
    ),
    "parallel": EngineConfig(
        "parallel",
        workers=DEFAULT_PARALLEL_WORKERS,
        description=(
            "sharded round scheduler (threads) plus batched firing; "
            "bit-identical for every worker/shard count"
        ),
    ),
    "persistent": EngineConfig(
        "persistent",
        workers=DEFAULT_PARALLEL_WORKERS,
        description=(
            "persistent delta-fed process workers with sharded firing; "
            "replicas seeded once, rounds ship only the delta"
        ),
    ),
}


def available_engines() -> tuple[str, ...]:
    """The registered engine names, in registration order."""
    return tuple(_REGISTRY)


def registered_engines() -> tuple[EngineConfig, ...]:
    """The registered default configurations, in registration order.

    The CLI generates ``--engine`` help and ``--list-engines`` output
    from this, so registered presets show up automatically.
    """
    return tuple(_REGISTRY.values())


def register_engine(config: EngineConfig, *, replace_existing: bool = False) -> None:
    """Register ``config`` as the default for its name.

    Third parties can add tuned presets — e.g.
    ``EngineConfig("turbo", mode="parallel", workers=8,
    use_processes=True)`` — and select them by name everywhere an
    ``engine`` argument is accepted; the preset's ``mode`` decides how
    the chase variants dispatch it.
    """
    if config.name in _REGISTRY and not replace_existing:
        raise ChaseError(
            f"engine {config.name!r} is already registered; pass "
            f"replace_existing=True to override it"
        )
    _REGISTRY[config.name] = config


def resolve_engine(engine: str | EngineConfig) -> EngineConfig:
    """Resolve an engine name or configuration to an :class:`EngineConfig`.

    Raises :class:`~repro.errors.ChaseError` with the list of valid names
    when ``engine`` is an unknown string.  Explicit :class:`EngineConfig`
    instances pass through untouched (mode and pool fields were validated
    on construction), so callers can tune workers/shards per run.
    """
    if isinstance(engine, EngineConfig):
        return engine
    config = _REGISTRY.get(engine)
    if config is None:
        valid = ", ".join(available_engines())
        raise ChaseError(
            f"unknown chase engine {engine!r}; valid engines: {valid}"
        )
    return config

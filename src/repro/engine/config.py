"""Engine configuration and the engine registry.

The chase variants and the Datalog closure accept an ``engine`` argument
that is either a registered engine *name* or an :class:`EngineConfig`
instance.  Every entry point resolves its argument through
:func:`resolve_engine`, which raises a :class:`~repro.errors.ChaseError`
naming the valid engines on a typo.

Built-in engines
----------------
``delta``
    Sequential semi-naive enumeration (the default of every chase
    variant and of the closure): each round only matches rule bodies
    pivoted on the previous round's delta.
``naive``
    Full re-match reference implementation; kept as the ground truth the
    other engines are tested against.
``parallel``
    The parallel mode at one worker: rounds run inline, exactly like
    ``delta``.  Raise ``workers`` to run them on the worker pool.
``persistent``
    The parallel mode at four workers: rounds enumerate on the persistent
    :class:`~repro.engine.workers.WorkerPool` and fire in the parent.
    Each worker holds a long-lived replica of the instance, seeded once
    and synced with only the per-round delta.  ``"persistent"`` is a
    spelling of ``mode="parallel"``; results are bit-identical to
    ``delta`` for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ChaseError

#: Pool size of the ``persistent`` preset.  Chosen for laptop-scale
#: corpora; set it via an explicit :class:`EngineConfig` on bigger boxes.
DEFAULT_PARALLEL_WORKERS = 4


#: The execution modes the chase variants know how to dispatch on.
#: ``"persistent"`` is accepted as a mode spelling but normalizes to
#: ``mode="parallel"`` at construction — the chase variants only ever
#: dispatch on the first three.
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
        ``"delta"``, ``"naive"``, ``"parallel"`` (``"persistent"`` is
        accepted as a spelling of ``"parallel"``).  Defaults to
        ``name``; a preset under a custom name must set it explicitly.
        Validated at construction, so a typo raises instead of silently
        running the wrong engine.
    workers:
        Worker-pool size of the parallel mode, an ``int`` (a ``bool``,
        float or string raises).  ``1`` runs every round
        inline; more runs rounds on a persistent
        :class:`~repro.engine.workers.WorkerPool` of that many processes
        (see :attr:`uses_pool`).  The sequential modes run in-process,
        so they reject ``workers > 1`` instead of ignoring it.  The
        per-round delta is routed to the workers by atom hash; the worker
        count never affects results.
    description:
        One-line human description, shown by ``repro chase
        --list-engines`` and usable by third-party presets.  Presentation
        only — it never affects dispatch.
    """

    name: str
    mode: str = ""
    workers: int = 1
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
        if isinstance(self.workers, bool) or not isinstance(self.workers, int):
            raise ChaseError(
                f"engine {self.name!r} needs an integer worker count, "
                f"got {self.workers!r}"
            )
        if self.workers < 1:
            raise ChaseError(
                f"engine {self.name!r} needs at least 1 worker, "
                f"got {self.workers}"
            )
        if self.workers > 1 and self.mode != "parallel":
            raise ChaseError(
                f"engine {self.name!r} runs sequentially (mode "
                f"{self.mode!r}); workers={self.workers} needs a "
                f"parallel-mode engine"
            )

    @property
    def is_parallel(self) -> bool:
        """True for the parallel mode (inline or pooled)."""
        return self.mode == "parallel"

    @property
    def is_naive(self) -> bool:
        """True for the full re-match reference mode."""
        return self.mode == "naive"

    @property
    def uses_pool(self) -> bool:
        """True when rounds run on the persistent worker pool."""
        return self.mode == "parallel" and self.workers > 1

    def with_workers(self, workers: int) -> "EngineConfig":
        """Return a copy with a different worker-pool size (validated)."""
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
        description=(
            "parallel mode at one worker: rounds run inline; raise "
            "--workers to run them on the worker pool"
        ),
    ),
    "persistent": EngineConfig(
        "persistent",
        workers=DEFAULT_PARALLEL_WORKERS,
        description=(
            "persistent delta-fed process workers match on replicas "
            "seeded once, rounds ship only the delta and fire in the parent"
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
    ``EngineConfig("turbo", mode="parallel", workers=8)`` — and select
    them by name everywhere an ``engine`` argument is accepted; the
    preset's ``mode`` decides how the chase variants dispatch it.
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
    on construction), so callers can tune the pool per run.
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

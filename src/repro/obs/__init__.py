"""``repro.obs`` — unified chase telemetry.

Three pieces (see the "Observability" section of
``src/repro/engine/README.md`` for the walk-through):

* :class:`~repro.obs.registry.MetricsRegistry` — named counter groups
  with one ``snapshot()``/``reset_all()``/``collect()`` surface.  The
  process-wide :func:`default_registry` exposes the library's stats
  globals as its groups (``matcher``, ``instantiation``, ``transport``,
  ``serving``) — the globals stay importable from their home modules
  for back-compat; the registry only names them.
* :class:`~repro.obs.trace.RunTrace` / :class:`~repro.obs.trace.RoundRecorder`
  — per-round structured trace records with disjoint phase timers,
  emitted by :class:`~repro.engine.runner.ChaseRunner` when a trace is
  attached, written as JSONL and summarized by
  ``tools/trace_summary.py``.
* Worker-side decode/execute/encode timings and matcher/instantiation
  counts shipped in the wire reply envelope
  (:func:`repro.engine.wire.pack_reply`): the timings are aggregated per
  command into ``TRANSPORT_STATS.worker_seconds``, the counts added to
  ``MATCHER_STATS`` and ``INSTANTIATION_STATS``.

This package imports only the standard library at module level;
:func:`default_registry` pulls the stats globals in lazily, so ``obs``
is importable from every layer (including :mod:`repro.chase.result` and
the engine modules) without cycles.
"""

from __future__ import annotations

from repro.obs.registry import (
    CollectScope,
    MetricsRegistry,
    StatsGroup,
    diff_snapshots,
)
from repro.obs.trace import (
    PHASES,
    TRACE_SCHEMA_VERSION,
    RoundRecorder,
    RunTrace,
    active_round,
)

__all__ = [
    "CollectScope",
    "MetricsRegistry",
    "StatsGroup",
    "PHASES",
    "TRACE_SCHEMA_VERSION",
    "RoundRecorder",
    "RunTrace",
    "active_round",
    "default_registry",
    "diff_snapshots",
    "reset_all",
]

_DEFAULT_REGISTRY: MetricsRegistry | None = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry, with the library's stats globals named.

    Built lazily on first use (the stats globals live in modules above
    and below this package in the import DAG); every later call returns
    the same instance, so scopes and resets observe one shared state.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        from repro.engine.workers import TRANSPORT_STATS
        from repro.logic.homomorphisms import MATCHER_STATS
        from repro.rules.rule import INSTANTIATION_STATS
        from repro.serving.stats import SERVING_STATS

        registry = MetricsRegistry()
        registry.register("matcher", MATCHER_STATS)
        registry.register("instantiation", INSTANTIATION_STATS)
        registry.register("transport", TRANSPORT_STATS)
        registry.register("serving", SERVING_STATS)
        _DEFAULT_REGISTRY = registry
    return _DEFAULT_REGISTRY


def reset_all() -> None:
    """Zero every group of the default registry (cross-run leakage fix)."""
    default_registry().reset_all()
